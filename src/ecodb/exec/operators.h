// Volcano-style physical operators.
//
// Each operator pulls rows from its children and reports its logical work
// to the ExecContext, which converts it into simulated CPU cycles, DRAM
// traffic and disk I/O. Life cycle: Open, then Next (row mode) or
// NextBatch (batch mode) pulls until end of stream, then Close.

#ifndef ECODB_EXEC_OPERATORS_H_
#define ECODB_EXEC_OPERATORS_H_

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "ecodb/exec/exec_context.h"
#include "ecodb/exec/expr.h"
#include "ecodb/exec/hash_table.h"
#include "ecodb/exec/morsel.h"
#include "ecodb/exec/result_set.h"
#include "ecodb/exec/row_batch.h"
#include "ecodb/exec/typed_column.h"
#include "ecodb/storage/catalog.h"
#include "ecodb/storage/schema.h"
#include "ecodb/util/status.h"

namespace ecodb {

class Operator {
 public:
  /// `max_rows` of a caller that takes the whole stream (result drains,
  /// pipeline breakers consuming their input).
  static constexpr size_t kAllRows = static_cast<size_t>(-1);

  virtual ~Operator() = default;
  virtual Status Open() = 0;
  /// Row-mode pull (the Volcano loop and the parity oracle): sets
  /// *has_row = false at end of stream. Batch mode never calls it.
  virtual Status Next(Row* out, bool* has_row) = 0;

  /// Batch-mode pull: fills `out` (Reset by the callee) with at most
  /// min(max_rows, RowBatch::kDefaultBatchRows) selected rows and sets
  /// *has_rows = false at end of stream; a returned batch always has at
  /// least one selected row. `max_rows` (>= 1) bounds how many more rows
  /// the caller will take from this stream, and the callee reads and
  /// charges only input that producing that many rows needs — the input
  /// the early-stopping row engine reads too. A LimitOp passes what is
  /// left of its limit; callers that drain the stream pass kAllRows.
  /// Pipeline breakers consult ExecContext::exec_mode() at Open to decide
  /// how to consume their children; the mode a tree is *driven* in is
  /// decided by the root caller (ExecuteOperator).
  virtual Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) = 0;

  /// Hands the operator's whole emission over as materialized columns
  /// (`*rows` rows each, in emission order, no memory tracker attached)
  /// instead of serving it through pulls; afterwards the operator is at
  /// end of stream. Only the root of a batch-mode drain asks
  /// (ResultDrain), and only before its first pull. Returns false, the
  /// default, when the operator has no such columns.
  virtual bool TakeEmission(std::vector<TypedColumn>* /*columns*/,
                            size_t* /*rows*/) {
    return false;
  }

  virtual void Close() = 0;
  virtual const Schema& schema() const = 0;
  virtual std::string name() const = 0;
};

using OperatorPtr = std::unique_ptr<Operator>;

/// Aggregate function specification for HashAggOp.
struct AggSpec {
  enum class Kind { kSum, kCount, kAvg, kMin, kMax };
  Kind kind = Kind::kSum;
  ExprPtr arg;  ///< null for COUNT(*)
  std::string name;

  ValueType ResultType() const;
};

/// Sort key: expression over the input row + direction.
struct SortKey {
  ExprPtr expr;
  bool ascending = true;
};

/// Full-table scan. Charges per-tuple CPU cost and (for disk-backed
/// profiles) page I/O, mixing in a random fetch every
/// cold_random_page_period pages.
class SeqScanOp : public Operator {
 public:
  SeqScanOp(ExecContext* ctx, const std::string& table_name);

  /// Makes this scan the leaf of a spine on the simulated-core schedule
  /// (exec/morsel.h), marking `phase` when the scan is exhausted.
  void AttachSchedule(const char* phase) { schedule_.emplace(ctx_, phase); }

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "SeqScan(" + table_name_ + ")"; }

 private:
  ExecContext* ctx_;
  std::string table_name_;
  Schema schema_;
  const Table* table_ = nullptr;
  const HeapFile* file_ = nullptr;
  size_t next_row_ = 0;
  uint64_t pages_fetched_ = 0;
  int row_width_ = 0;
  std::optional<MorselSchedule> schedule_;
};

class FilterOp : public Operator {
 public:
  FilterOp(ExecContext* ctx, OperatorPtr child, ExprPtr predicate);

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override {
    return "Filter(" + predicate_->ToString() + ")";
  }

  uint64_t rows_in() const { return rows_in_; }
  uint64_t rows_out() const { return rows_out_; }

 private:
  ExecContext* ctx_;
  OperatorPtr child_;
  ExprPtr predicate_;
  ExprScratch scratch_;  ///< reusable temporaries for FilterBatch
  uint64_t rows_in_ = 0;
  uint64_t rows_out_ = 0;
};

class ProjectOp : public Operator {
 public:
  ProjectOp(ExecContext* ctx, OperatorPtr child, std::vector<ExprPtr> exprs,
            std::vector<std::string> names);

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "Project"; }

 private:
  /// Evaluates exprs_[i] into column `i` of `out`, preferring typed
  /// output: a ColumnExpr over an unboxed input column becomes a typed
  /// lane gather, a double arithmetic subtree is computed straight into a
  /// double lane, and everything else falls back to boxed EvalBatch.
  void EvalExprInto(size_t i, RowBatch* out);

  ExecContext* ctx_;
  OperatorPtr child_;
  std::vector<ExprPtr> exprs_;
  Schema schema_;
  RowBatch input_batch_;  ///< batch-mode scratch
  ExprScratch scratch_;
};

/// In-memory hash join (equi-join). children: build (left) and probe
/// (right); output schema = build fields ++ probe fields. For disk-backed
/// profiles a grace-hash spill of build+probe bytes is charged per the
/// profile's spill_fraction.
///
/// The build side lives in a FlatHashIndex over a contiguous column-major
/// payload pool of TypedColumns; duplicate keys chain in insertion
/// order, preserving multimap semantics. Both execution modes probe the
/// same table: batch mode hashes all selected probe keys of a batch up
/// front (typed, unboxed for lazily-bound scan batches and lane columns),
/// accumulates the matched (build entry, probe row) pairs of a batch, and
/// emits them with a *columnar gather* — raw values from the typed build
/// pool and the probe batch straight into typed output lanes, with
/// strings carried by pointer from stable storage (build pool / table)
/// instead of copied per match. Row mode hashes the materialized probe
/// row. Either way each emitted match charges MatchComparisons(); chain
/// entries that fail key equality (64-bit hash collisions) charge nothing.
///
/// A batch pull stops at its cap and leaves surplus matches in the chain
/// cursor. It asks the probe child for ceil(remaining / F) rows, where F
/// = size - distinct hashes + 1 bounds the matches of one probe row: the
/// r-th output cannot be complete before probe row ceil(r / F), so the
/// row engine reads every probe row this pull reads.
class HashJoinOp : public Operator {
 public:
  HashJoinOp(ExecContext* ctx, OperatorPtr build, OperatorPtr probe,
             std::vector<int> build_keys, std::vector<int> probe_keys);

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashJoin"; }

 private:
  /// Drains the (already open) build child into the index and pool.
  Status ConsumeBuild();
  /// Key-equality of build entry `idx` against a probe row whose key
  /// column c reads as `probe_cell(c)` (a CellView; materialized row or
  /// batch row).
  template <typename ProbeCell>
  bool KeysEqual(uint32_t idx, ProbeCell&& probe_cell) const;
  /// Comparisons charged per emitted match: one bucket compare plus one
  /// per key column.
  uint64_t MatchComparisons() const { return 1 + build_keys_.size(); }
  /// Gathers the accumulated match pairs into `out` and clears them.
  /// Must run before the probe batch they reference is replaced.
  void FlushMatches(RowBatch* out);

  ExecContext* ctx_;
  OperatorPtr build_child_, probe_child_;
  std::vector<int> build_keys_, probe_keys_;
  Schema schema_;

  // Build side: the flat index over a typed column-major payload pool.
  FlatHashIndex index_;
  std::vector<TypedColumn> build_cols_;
  uint32_t build_rows_ = 0;
  uint64_t build_bytes_ = 0;
  /// F, the most matches one probe row can have; 0 for an empty build,
  /// whose probe side every mode drains.
  size_t fan_out_ = 0;

  uint32_t match_ = FlatHashIndex::kInvalid;  ///< chain cursor (both modes)
  Row probe_row_;
  bool probe_valid_ = false;
  uint64_t probe_rows_ = 0;

  // Batch-mode probe state: current probe batch, its up-front key hashes
  // (parallel to the selection vector), the position of the in-progress
  // probe row within the selection, and end-of-stream.
  RowBatch probe_batch_;
  std::vector<size_t> probe_hashes_;
  size_t probe_sel_pos_ = 0;
  bool probe_batch_valid_ = false;
  bool probe_eos_ = false;

  // Gather-emission scratch: matched build entries and probe rows of the
  // output batch under construction (flushed per probe batch).
  std::vector<uint32_t> match_build_;
  std::vector<uint32_t> match_probe_;
};

/// Nested-loop join with an arbitrary predicate over the concatenated row
/// (inner side materialized at Open). A batch pull builds at most its cap
/// of candidate pairs (each yields at most one output row) and asks the
/// outer child for ceil(candidates still wanted / inner rows) rows; over
/// an empty inner side it drains the outer child, as row mode does.
class NestedLoopJoinOp : public Operator {
 public:
  NestedLoopJoinOp(ExecContext* ctx, OperatorPtr outer, OperatorPtr inner,
                   ExprPtr predicate /* may be null for cross join */);

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "NestedLoopJoin"; }

 private:
  /// Materializes the inner side into inner_rows_ (both modes), checking
  /// the governor per pull and charging the pool to the memory tracker.
  Status ConsumeInnerSide();

  ExecContext* ctx_;
  OperatorPtr outer_, inner_;
  ExprPtr predicate_;
  ExprScratch scratch_;
  Schema schema_;
  std::vector<Row> inner_rows_;
  uint64_t inner_pool_bytes_ = 0;  ///< tracked logical bytes of inner_rows_
  /// True when inner_rows_ holds string cells: emitted batches then carry
  /// pointers into this pool (valid until Close, not arena-retained) and
  /// are marked pool-backed so cross-Close borrowers copy instead.
  bool inner_strings_pool_ = false;
  Row outer_row_;
  bool outer_valid_ = false;
  size_t inner_pos_ = 0;

  // Batch-mode outer state.
  RowBatch outer_batch_;
  size_t outer_sel_pos_ = 0;
  bool outer_batch_valid_ = false;
  bool outer_eos_ = false;
};

/// Hash group-by aggregation. With no group-by expressions produces a
/// single global-aggregate row (even for empty input, SQL semantics).
///
/// Emission is columnar in both modes: Open materializes the group pool
/// into one TypedColumn per output field — group keys gathered unboxed
/// from the stored key Rows, SUM/AVG/COUNT accumulators finalized
/// straight into double/int64 lanes — and then drops the pool. NextBatch
/// gathers typed lanes out of those columns (strings by pointer into the
/// columns' arenas, retained by each emitted batch); row mode's Next
/// boxes from the same columns.
class HashAggOp : public Operator {
 public:
  HashAggOp(ExecContext* ctx, OperatorPtr child,
            std::vector<ExprPtr> group_by, std::vector<AggSpec> aggs);

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return schema_; }
  std::string name() const override { return "HashAgg"; }

 private:
  struct Accumulator {
    double sum = 0.0;
    uint64_t count = 0;
    Value min, max;
  };
  struct Group {
    Row key;
    std::vector<Accumulator> accs;
  };

  /// How one aggregate's argument is consumed in batch mode: COUNT(*)
  /// needs no argument; a CanEvalDoubleSubtree-approved SUM/AVG/COUNT
  /// argument is computed once per batch into a raw double array (or one
  /// scalar) with no boxing anywhere; everything else resolves to a
  /// BatchOperand and accumulates through unboxed CellViews.
  struct BatchAggArg {
    enum class Mode { kCountStar, kTypedDouble, kOperand };
    Mode mode = Mode::kCountStar;
    BatchOperand operand;
    std::vector<double> doubles;  ///< operator-owned, reused per batch
    double scalar = 0;
    bool is_scalar = false;
  };

  void UpdateGroup(Group* g, const Row& row);
  /// Accumulates row `r` of a batch from the prepared per-agg arguments.
  void UpdateGroupFromBatch(Group* g, const std::vector<BatchAggArg>& args,
                            uint32_t r);
  /// Finds or creates the group for a key presented via `key_at(i)` (an
  /// unboxed CellView of the i-th key component); `make_key()` builds the
  /// stored Row only when a new group is created. Charges nothing: each
  /// input row that finds an existing group costs one comparison, which
  /// the consume loops charge. The returned pointer is valid only until
  /// the next call (the contiguous group pool may reallocate).
  template <typename KeyAt, typename MakeKey>
  Group* FindOrCreateGroup(size_t hash, size_t n_keys, KeyAt&& key_at,
                           MakeKey&& make_key, uint64_t* new_groups);
  Status ConsumeChildRowMode();
  Status ConsumeChildBatchMode();
  /// Materializes the group pool into result_cols_ (column-at-a-time,
  /// hoisted per-column dispatch) and sets n_results_.
  void MaterializeResults();

  ExecContext* ctx_;
  OperatorPtr child_;
  std::vector<ExprPtr> group_by_;
  std::vector<AggSpec> aggs_;
  Schema schema_;
  ExprScratch scratch_;
  FlatHashIndex group_index_;
  std::vector<Group> groups_;  ///< contiguous pool, insertion order
  uint64_t group_pool_bytes_ = 0;  ///< tracked logical bytes of groups_

  // Dictionary-key memo (batch consume only), used when EVERY group key
  // resolves to the codes of a dict-encoded string column: maps the
  // composite code (mixed-radix over the keys' dictionary sizes) to its
  // group's pool index, so a memo hit skips hashing and the chain walk.
  // Bounded by kDictMemoMaxEntries (dictionaries themselves cap at
  // Column::kDictMaxEntries each).
  std::vector<const Column*> dict_memo_dicts_;
  std::vector<uint32_t> dict_memo_group_;

  // Columnar result store: one TypedColumn per output field, shared by
  // both emission paths; emit_idx_ is NextBatch's gather-index scratch.
  std::vector<TypedColumn> result_cols_;
  std::vector<uint32_t> emit_idx_;
  size_t n_results_ = 0;
  size_t result_pos_ = 0;
};

/// Sort (pipeline breaker). Row mode keeps the classic path: materialize
/// boxed Rows, decorate with evaluated key Rows, std::sort, emit Rows.
/// Batch mode is columnar end to end: the input is materialized into
/// TypedColumns (strings into refcounted arenas, no Value boxing), sort
/// keys are evaluated vectorized into their own TypedColumns, an *index*
/// vector is sorted comparing unboxed CellViews, and output batches
/// gather typed lanes in sorted order (strings by pointer into the
/// operator's arenas, retained by each emitted batch). Both modes charge
/// the same key evaluations and ExecContext::ChargeSort on the row count,
/// so how std::sort reaches the order never shows in the counters.
///
/// At the root of a batch-mode drain the columns are not gathered at all:
/// TakeEmission permutes them into sorted order in place and hands them
/// to the ResultSet, so the sorted input exists once. Their logical bytes
/// stay charged to the query until Close, exactly as the gather path's
/// pool would.
class SortOp : public Operator {
 public:
  SortOp(ExecContext* ctx, OperatorPtr child, std::vector<SortKey> keys);

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  bool TakeEmission(std::vector<TypedColumn>* columns, size_t* rows) override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Sort"; }

 private:
  Status ConsumeChildRowMode();
  Status ConsumeChildBatchMode();

  ExecContext* ctx_;
  OperatorPtr child_;
  std::vector<SortKey> keys_;
  ExprScratch scratch_;

  // Row-mode storage: materialized rows, rearranged into sorted order.
  std::vector<Row> rows_;
  /// Logical bytes charged for rows_, or for the columns TakeEmission
  /// handed off; released at Close.
  uint64_t pool_bytes_ = 0;

  // Batch-mode storage: the input as typed columns, the evaluated sort
  // keys as typed columns, and the sorted permutation of [0, n_rows_).
  bool columnar_ = false;
  std::vector<TypedColumn> cols_;
  std::vector<TypedColumn> key_cols_;
  std::vector<uint32_t> order_;
  size_t n_rows_ = 0;

  // Per-key dictionary-code mirror (batch consume): when every batch
  // resolves sort key k to dictionary codes of one column, the
  // comparator compares int32 codes instead of string bytes — legal
  // because the dictionary is sorted, so codes are order-preserving.
  // Any batch that breaks the pattern clears the flag and the comparator
  // falls back to key_cols_.
  std::vector<std::vector<int32_t>> key_code_vals_;
  std::vector<const Column*> key_dicts_;
  std::vector<char> key_code_ok_;

  size_t pos_ = 0;
};

/// LIMIT n. Both modes stop pulling once n rows went out. A batch pull
/// asks the child for at most what is left of the limit, so the subtree
/// reads exactly the rows the row engine reads before it stops.
class LimitOp : public Operator {
 public:
  LimitOp(ExecContext* ctx, OperatorPtr child, int64_t limit);

  Status Open() override;
  Status Next(Row* out, bool* has_row) override;
  Status NextBatch(RowBatch* out, bool* has_rows, size_t max_rows) override;
  void Close() override;
  const Schema& schema() const override { return child_->schema(); }
  std::string name() const override { return "Limit"; }

 private:
  ExecContext* ctx_;
  OperatorPtr child_;
  int64_t limit_;  ///< >= 0 (ValidatePlan)
  int64_t produced_ = 0;
};

/// Drains an opened operator tree into a ResultSet, one Pull at a time:
/// ExecuteOperatorColumnar pulls to the end in one call, QueryTask one
/// Pull per scheduler step. Each Pull checks the governor before every
/// child pull, charges per-row output cost and counts the accumulating
/// result against the query's memory budget (logical schema width per
/// row, identical across modes; the charge is dropped once the result is
/// handed over — the result outlives the query's tracker).
///
/// In batch mode the drain first offers the root TakeEmission; when it
/// hands its columns over, the ResultSet adopts them and each Pull only
/// replays what a batch pull would have done: one governor check and the
/// charges of up to RowBatch::kDefaultBatchRows rows, then a final empty
/// Pull. Counters, governor trips and scheduler steps land where the
/// pulled path puts them.
class ResultDrain {
 public:
  /// `op` must be open (schemas bind at Open); pulls in ctx's exec mode.
  ResultDrain(Operator* op, ExecContext* ctx);

  /// Appends one batch (row mode: up to one batch's worth of rows); sets
  /// *done at end of stream. On error the caller must Close.
  Status Pull(bool* done);
  /// After *done: folds the result's string-dedup counters into the
  /// stats, releases the result charge, closes the tree, flushes, and
  /// hands the result over.
  ResultSet Finish();
  /// Releases the result charge and closes the tree (the error path;
  /// Finish does it too).
  void Close();

 private:
  /// Output cost and result-bytes charge of `n` appended rows.
  void ChargeRows(uint64_t n);

  Operator* op_;
  ExecContext* ctx_;
  ResultSet set_;
  int width_;
  uint64_t result_bytes_ = 0;
  RowBatch batch_;
  Row row_;
  bool adopted_ = false;    ///< set_ holds the root's handed-off columns
  size_t adopted_left_ = 0;  ///< adopted rows not yet charged
};

/// Drains an operator tree: Open, Next/NextBatch..., Close, charging
/// per-row output cost, and returns the result *columnar*. Batch mode
/// appends each RowBatch to the ResultSet column-at-a-time (typed lanes
/// and lazy scan columns never box a Value); row mode boxes each Row
/// through the same typed columns, so both modes produce an identical
/// ResultSet and identical logical-work counters.
Result<ResultSet> ExecuteOperatorColumnar(Operator* op, ExecContext* ctx,
                                          ExecMode mode = ExecMode::kBatch);

/// Row-oriented convenience wrapper over ExecuteOperatorColumnar (tests
/// and callers that want std::vector<Row>).
Result<std::vector<Row>> ExecuteOperator(Operator* op, ExecContext* ctx,
                                         ExecMode mode = ExecMode::kBatch);

}  // namespace ecodb

#endif  // ECODB_EXEC_OPERATORS_H_
