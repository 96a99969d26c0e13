#include "ecodb/sql/planner.h"

#include <algorithm>
#include <map>

#include "ecodb/sql/binder.h"
#include "ecodb/sql/parser.h"
#include "ecodb/util/strings.h"

namespace ecodb::sql {

namespace {

/// One base table participating in the FROM clause.
struct TableRef {
  std::string name;
  const Table* table = nullptr;
  std::vector<const AstExpr*> local_predicates;
  double est_rows = 0;
};

/// An equi-join edge col(ta) = col(tb).
struct JoinEdge {
  int table_a = 0;
  std::string col_a;
  int table_b = 0;
  std::string col_b;
  bool used = false;
};

/// Flattens nested ANDs into conjuncts.
void CollectConjuncts(const AstExpr& e, std::vector<const AstExpr*>* out) {
  if (e.kind == AstKind::kLogical && e.log_op == LogicalOp::kAnd) {
    for (const AstExprPtr& a : e.args) CollectConjuncts(*a, out);
    return;
  }
  out->push_back(&e);
}

void CollectColumnNames(const AstExpr& e, std::vector<std::string>* out) {
  if (e.kind == AstKind::kColumn) out->push_back(e.name);
  for (const AstExprPtr& a : e.args) CollectColumnNames(*a, out);
}

/// Crude pre-statistics selectivity for ordering heuristics only.
double HeuristicSelectivity(const AstExpr& pred) {
  switch (pred.kind) {
    case AstKind::kCompare:
      return pred.cmp_op == CompareOp::kEq ? 0.05 : 0.3;
    case AstKind::kBetween:
      return 0.15;
    case AstKind::kInList:
      return std::min(1.0, 0.05 * static_cast<double>(pred.args.size() - 1));
    case AstKind::kLogical: {
      double s = pred.log_op == LogicalOp::kAnd ? 1.0 : 0.0;
      for (const AstExprPtr& a : pred.args) {
        double as = HeuristicSelectivity(*a);
        if (pred.log_op == LogicalOp::kAnd) {
          s *= as;
        } else {
          s = s + as - s * as;
        }
      }
      return s;
    }
    default:
      return 0.5;
  }
}

class Planner {
 public:
  Planner(const SelectStatement& stmt, const Catalog& catalog)
      : stmt_(stmt), catalog_(catalog) {}

  Result<PlanNodePtr> Plan();

 private:
  /// (table index, column index) -> position in the current plan output.
  struct LayoutEntry {
    int table = 0;
    int column = 0;
  };

  Result<PlanNodePtr> BuildBaseInput(int t);
  Result<PlanNodePtr> BuildJoinTree();
  int FindLayout(int table, const std::string& col) const;
  Schema LayoutSchema() const;
  Result<PlanNodePtr> ApplyResidual(PlanNodePtr plan);
  Result<PlanNodePtr> ApplyAggregation(PlanNodePtr plan);
  Result<PlanNodePtr> ApplyOrderLimit(PlanNodePtr plan);
  /// Binds the ORDER BY keys over `output`, the final plan's schema. With
  /// `project` (a plain SELECT's final projection) they bind below it
  /// instead: output columns become their projection expressions and any
  /// other key binds over the projection's input.
  Result<std::vector<SortKey>> BindOrderKeys(const Schema& output,
                                             const PlanNode* project) const;

  const SelectStatement& stmt_;
  const Catalog& catalog_;

  std::vector<TableRef> tables_;
  std::vector<JoinEdge> edges_;
  std::vector<const AstExpr*> residual_;
  std::vector<LayoutEntry> layout_;
  std::vector<bool> joined_;

  /// Set when aggregation applied: maps select items to output columns.
  bool aggregated_ = false;
  /// Text of each select item (post-bind key for ORDER BY matching).
  std::vector<std::string> item_keys_;
};

int Planner::FindLayout(int table, const std::string& col) const {
  for (size_t i = 0; i < layout_.size(); ++i) {
    const LayoutEntry& e = layout_[i];
    if (e.table == table &&
        EqualsIgnoreCase(
            tables_[static_cast<size_t>(e.table)].table->schema()
                .field(e.column).name,
            col)) {
      return static_cast<int>(i);
    }
  }
  return -1;
}

Schema Planner::LayoutSchema() const {
  std::vector<Field> fields;
  fields.reserve(layout_.size());
  for (const LayoutEntry& e : layout_) {
    fields.push_back(tables_[static_cast<size_t>(e.table)].table->schema()
                         .field(e.column));
  }
  return Schema(std::move(fields));
}

Result<PlanNodePtr> Planner::BuildBaseInput(int t) {
  TableRef& ref = tables_[static_cast<size_t>(t)];
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, MakeScan(catalog_, ref.name));
  if (!ref.local_predicates.empty()) {
    std::vector<ExprPtr> bound;
    for (const AstExpr* p : ref.local_predicates) {
      ECODB_ASSIGN_OR_RETURN(ExprPtr e,
                             BindScalar(*p, ref.table->schema()));
      bound.push_back(std::move(e));
    }
    plan = MakeFilter(std::move(plan), And(std::move(bound)));
  }
  return plan;
}

Result<PlanNodePtr> Planner::BuildJoinTree() {
  size_t n = tables_.size();
  joined_.assign(n, false);

  // Start from the smallest filtered table.
  int start = 0;
  for (size_t t = 1; t < n; ++t) {
    if (tables_[t].est_rows < tables_[static_cast<size_t>(start)].est_rows) {
      start = static_cast<int>(t);
    }
  }
  ECODB_ASSIGN_OR_RETURN(PlanNodePtr plan, BuildBaseInput(start));
  joined_[static_cast<size_t>(start)] = true;
  double current_est = tables_[static_cast<size_t>(start)].est_rows;
  layout_.clear();
  for (int c = 0; c < tables_[static_cast<size_t>(start)].table->schema()
                          .num_fields(); ++c) {
    layout_.push_back(LayoutEntry{start, c});
  }

  for (size_t round = 1; round < n; ++round) {
    // Pick the connected un-joined table with the smallest estimate.
    int next = -1;
    for (size_t t = 0; t < n; ++t) {
      if (joined_[t]) continue;
      bool connected = false;
      for (const JoinEdge& e : edges_) {
        int other = -1;
        if (e.table_a == static_cast<int>(t) &&
            joined_[static_cast<size_t>(e.table_b)]) {
          other = e.table_b;
        }
        if (e.table_b == static_cast<int>(t) &&
            joined_[static_cast<size_t>(e.table_a)]) {
          other = e.table_a;
        }
        if (other >= 0) {
          connected = true;
          break;
        }
      }
      if (!connected) continue;
      if (next < 0 || tables_[t].est_rows <
                          tables_[static_cast<size_t>(next)].est_rows) {
        next = static_cast<int>(t);
      }
    }
    bool cross = false;
    if (next < 0) {
      // Disconnected: cross join the smallest remaining table.
      for (size_t t = 0; t < n; ++t) {
        if (joined_[t]) continue;
        if (next < 0 || tables_[t].est_rows <
                            tables_[static_cast<size_t>(next)].est_rows) {
          next = static_cast<int>(t);
        }
      }
      cross = true;
    }

    ECODB_ASSIGN_OR_RETURN(PlanNodePtr rhs, BuildBaseInput(next));
    const Schema& rhs_schema =
        tables_[static_cast<size_t>(next)].table->schema();

    if (cross) {
      PlanNodePtr joined = MakeNestedLoopJoin(std::move(plan),
                                              std::move(rhs), nullptr);
      for (int c = 0; c < rhs_schema.num_fields(); ++c) {
        layout_.push_back(LayoutEntry{next, c});
      }
      plan = std::move(joined);
      current_est *= tables_[static_cast<size_t>(next)].est_rows;
      joined_[static_cast<size_t>(next)] = true;
      continue;
    }

    // Gather all usable equi-join keys between the current set and next.
    std::vector<int> plan_keys;   // positions in current layout
    std::vector<int> rhs_keys;    // positions in rhs schema
    for (JoinEdge& e : edges_) {
      if (e.used) continue;
      std::string col_new, col_old;
      int t_old = -1;
      if (e.table_a == next && joined_[static_cast<size_t>(e.table_b)]) {
        col_new = e.col_a;
        t_old = e.table_b;
        col_old = e.col_b;
      } else if (e.table_b == next &&
                 joined_[static_cast<size_t>(e.table_a)]) {
        col_new = e.col_b;
        t_old = e.table_a;
        col_old = e.col_a;
      } else {
        continue;
      }
      int plan_pos = FindLayout(t_old, col_old);
      int rhs_pos = rhs_schema.FindField(col_new);
      if (plan_pos < 0 || rhs_pos < 0) continue;
      plan_keys.push_back(plan_pos);
      rhs_keys.push_back(rhs_pos);
      e.used = true;
    }
    if (plan_keys.empty()) {
      return Status::Internal("join ordering found no usable key");
    }

    double rhs_est = tables_[static_cast<size_t>(next)].est_rows;
    // Hash join: smaller estimated side builds. Layout = build ++ probe.
    if (current_est <= rhs_est) {
      PlanNodePtr joined = MakeHashJoin(std::move(plan), std::move(rhs),
                                        plan_keys, rhs_keys);
      for (int c = 0; c < rhs_schema.num_fields(); ++c) {
        layout_.push_back(LayoutEntry{next, c});
      }
      plan = std::move(joined);
    } else {
      PlanNodePtr joined = MakeHashJoin(std::move(rhs), std::move(plan),
                                        rhs_keys, plan_keys);
      std::vector<LayoutEntry> new_layout;
      for (int c = 0; c < rhs_schema.num_fields(); ++c) {
        new_layout.push_back(LayoutEntry{next, c});
      }
      new_layout.insert(new_layout.end(), layout_.begin(), layout_.end());
      layout_ = std::move(new_layout);
      plan = std::move(joined);
    }
    joined_[static_cast<size_t>(next)] = true;
    current_est = std::max(current_est, rhs_est) * 0.2;  // coarse FK guess
  }
  return plan;
}

Result<PlanNodePtr> Planner::ApplyResidual(PlanNodePtr plan) {
  if (residual_.empty()) return plan;
  Schema schema = LayoutSchema();
  std::vector<ExprPtr> bound;
  for (const AstExpr* p : residual_) {
    ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*p, schema));
    bound.push_back(std::move(e));
  }
  return MakeFilter(std::move(plan), And(std::move(bound)));
}

Result<PlanNodePtr> Planner::ApplyAggregation(PlanNodePtr plan) {
  bool has_agg = !stmt_.group_by.empty();
  for (const SelectItem& item : stmt_.items) {
    if (ContainsAggregate(*item.expr)) has_agg = true;
  }
  Schema input_schema = LayoutSchema();

  if (!has_agg) {
    if (stmt_.select_star) {
      for (int i = 0; i < input_schema.num_fields(); ++i) {
        item_keys_.push_back(input_schema.field(i).name);
      }
      return plan;
    }
    std::vector<ExprPtr> exprs;
    std::vector<std::string> names;
    for (const SelectItem& item : stmt_.items) {
      ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*item.expr, input_schema));
      names.push_back(!item.alias.empty() ? item.alias
                                          : item.expr->ToString());
      item_keys_.push_back(item.expr->ToString());
      exprs.push_back(std::move(e));
    }
    return MakeProject(std::move(plan), std::move(exprs), std::move(names));
  }

  if (stmt_.select_star) {
    return Status::ParseError("SELECT * cannot be combined with aggregates");
  }
  aggregated_ = true;

  // Bind group-by expressions against the join output.
  std::vector<ExprPtr> group_exprs;
  std::vector<std::string> group_texts;
  for (const AstExprPtr& g : stmt_.group_by) {
    ECODB_ASSIGN_OR_RETURN(ExprPtr e, BindScalar(*g, input_schema));
    group_texts.push_back(g->ToString());
    group_exprs.push_back(std::move(e));
  }

  // Each select item must be a group-by expression or an aggregate call.
  struct OutputSlot {
    bool is_group = false;
    int group_index = 0;
    int agg_index = 0;
    std::string name;
  };
  std::vector<OutputSlot> slots;
  std::vector<AggSpec> aggs;
  for (const SelectItem& item : stmt_.items) {
    OutputSlot slot;
    std::string text = item.expr->ToString();
    slot.name = !item.alias.empty() ? item.alias : text;
    item_keys_.push_back(text);
    auto git = std::find(group_texts.begin(), group_texts.end(), text);
    if (git != group_texts.end()) {
      slot.is_group = true;
      slot.group_index = static_cast<int>(git - group_texts.begin());
      slots.push_back(slot);
      continue;
    }
    if (item.expr->kind != AstKind::kFuncCall ||
        !IsAggregateName(item.expr->name)) {
      return Status::ParseError(StrFormat(
          "select item '%s' is neither a GROUP BY column nor an aggregate",
          text.c_str()));
    }
    AggSpec spec;
    if (item.expr->name == "SUM") {
      spec.kind = AggSpec::Kind::kSum;
    } else if (item.expr->name == "COUNT") {
      spec.kind = AggSpec::Kind::kCount;
    } else if (item.expr->name == "AVG") {
      spec.kind = AggSpec::Kind::kAvg;
    } else if (item.expr->name == "MIN") {
      spec.kind = AggSpec::Kind::kMin;
    } else {
      spec.kind = AggSpec::Kind::kMax;
    }
    if (item.expr->args.size() != 1) {
      return Status::ParseError("aggregates take exactly one argument");
    }
    if (item.expr->args[0]->kind == AstKind::kStar) {
      if (spec.kind != AggSpec::Kind::kCount) {
        return Status::ParseError("'*' argument is only valid for COUNT");
      }
      spec.arg = nullptr;
    } else {
      ECODB_ASSIGN_OR_RETURN(spec.arg,
                             BindScalar(*item.expr->args[0], input_schema));
    }
    spec.name = slot.name;
    slot.agg_index = static_cast<int>(aggs.size());
    aggs.push_back(std::move(spec));
    slots.push_back(slot);
  }

  size_t n_groups = group_exprs.size();
  PlanNodePtr agg_plan = MakeAggregate(std::move(plan),
                                       std::move(group_exprs), aggs);

  // Final projection in select-item order with aliases.
  std::vector<ExprPtr> exprs;
  std::vector<std::string> names;
  const Schema& agg_schema = agg_plan->output_schema;
  for (const OutputSlot& slot : slots) {
    int idx = slot.is_group ? slot.group_index
                            : static_cast<int>(n_groups) + slot.agg_index;
    exprs.push_back(Col(idx, agg_schema.field(idx).type, slot.name));
    names.push_back(slot.name);
  }
  return MakeProject(std::move(agg_plan), std::move(exprs),
                     std::move(names));
}

Result<std::vector<SortKey>> Planner::BindOrderKeys(
    const Schema& output, const PlanNode* project) const {
  std::vector<SortKey> keys;
  for (const OrderItem& item : stmt_.order_by) {
    SortKey key;
    key.ascending = item.ascending;
    // Resolve: 1-based select-list position, output column/alias name,
    // select-item text, or scalar expression.
    std::string text = item.expr->ToString();
    int idx = -1;
    if (item.expr->kind == AstKind::kIntLit) {
      const int64_t pos = item.expr->int_value;
      if (pos < 1 || pos > output.num_fields()) {
        return Status::ParseError(StrFormat(
            "ORDER BY position %lld is not in the select list (1..%d)",
            static_cast<long long>(pos), output.num_fields()));
      }
      idx = static_cast<int>(pos - 1);
    } else if (item.expr->kind == AstKind::kColumn) {
      idx = output.FindField(item.expr->name);
    }
    if (idx < 0) {
      for (size_t i = 0; i < item_keys_.size(); ++i) {
        if (item_keys_[i] == text) {
          idx = static_cast<int>(i);
          break;
        }
      }
    }
    if (idx >= 0 && project != nullptr) {
      key.expr = project->exprs[static_cast<size_t>(idx)];
    } else if (idx >= 0) {
      key.expr = Col(idx, output.field(idx).type, output.field(idx).name);
    } else {
      const Schema& scope =
          project != nullptr ? project->children[0]->output_schema : output;
      ECODB_ASSIGN_OR_RETURN(key.expr, BindScalar(*item.expr, scope));
    }
    keys.push_back(std::move(key));
  }
  return keys;
}

Result<PlanNodePtr> Planner::ApplyOrderLimit(PlanNodePtr plan) {
  if (!stmt_.order_by.empty()) {
    Result<std::vector<SortKey>> keys =
        BindOrderKeys(plan->output_schema, nullptr);
    if (keys.ok()) {
      plan = MakeSort(std::move(plan), std::move(keys).value());
    } else if (!aggregated_ && plan->kind == PlanKind::kProject) {
      // A plain SELECT ordered by a column it does not project: sort
      // under the final projection, where every input column binds.
      ECODB_ASSIGN_OR_RETURN(std::vector<SortKey> below,
                             BindOrderKeys(plan->output_schema, plan.get()));
      PlanNode& project = *plan;
      plan = MakeProject(
          MakeSort(std::move(project.children[0]), std::move(below)),
          std::move(project.exprs), std::move(project.names));
    } else {
      return keys.status();
    }
  }
  if (stmt_.limit >= 0) {
    plan = MakeLimit(std::move(plan), stmt_.limit);
  }
  return plan;
}

Result<PlanNodePtr> Planner::Plan() {
  if (stmt_.from_tables.empty()) {
    return Status::ParseError("FROM clause is required");
  }
  // Resolve tables.
  for (const std::string& name : stmt_.from_tables) {
    const Table* t = catalog_.FindTable(name);
    if (t == nullptr) {
      return Status::NotFound(StrFormat("unknown table '%s'", name.c_str()));
    }
    TableRef ref;
    ref.name = name;
    ref.table = t;
    ref.est_rows = static_cast<double>(t->num_rows());
    tables_.push_back(std::move(ref));
  }

  // Map every column name to its table (TPC-H names are unique).
  auto table_of_column = [&](const std::string& col) -> int {
    for (size_t t = 0; t < tables_.size(); ++t) {
      if (tables_[t].table->schema().FindField(col) >= 0) {
        return static_cast<int>(t);
      }
    }
    return -1;
  };

  // Classify WHERE conjuncts.
  std::vector<const AstExpr*> conjuncts;
  if (stmt_.where) CollectConjuncts(*stmt_.where, &conjuncts);
  for (const AstExpr* c : conjuncts) {
    // Equi-join?
    if (c->kind == AstKind::kCompare && c->cmp_op == CompareOp::kEq &&
        c->args[0]->kind == AstKind::kColumn &&
        c->args[1]->kind == AstKind::kColumn) {
      int ta = table_of_column(c->args[0]->name);
      int tb = table_of_column(c->args[1]->name);
      if (ta < 0 || tb < 0) {
        return Status::ParseError(
            StrFormat("unknown column in join condition '%s'",
                      c->ToString().c_str()));
      }
      if (ta != tb) {
        edges_.push_back(
            JoinEdge{ta, c->args[0]->name, tb, c->args[1]->name});
        continue;
      }
    }
    // Single table?
    std::vector<std::string> cols;
    CollectColumnNames(*c, &cols);
    int home = -2;
    for (const std::string& col : cols) {
      int t = table_of_column(col);
      if (t < 0) {
        return Status::ParseError(
            StrFormat("unknown column '%s'", col.c_str()));
      }
      if (home == -2) {
        home = t;
      } else if (home != t) {
        home = -1;
      }
    }
    if (home >= 0) {
      tables_[static_cast<size_t>(home)].local_predicates.push_back(c);
    } else {
      residual_.push_back(c);
    }
  }

  // Apply local selectivities to ordering estimates.
  for (TableRef& ref : tables_) {
    for (const AstExpr* p : ref.local_predicates) {
      ref.est_rows *= HeuristicSelectivity(*p);
    }
    ref.est_rows = std::max(1.0, ref.est_rows);
  }

  PlanNodePtr plan;
  if (tables_.size() == 1) {
    ECODB_ASSIGN_OR_RETURN(plan, BuildBaseInput(0));
    layout_.clear();
    for (int c = 0; c < tables_[0].table->schema().num_fields(); ++c) {
      layout_.push_back(LayoutEntry{0, c});
    }
  } else {
    ECODB_ASSIGN_OR_RETURN(plan, BuildJoinTree());
    // Any unused join edges become post-join filters.
    Schema schema = LayoutSchema();
    std::vector<ExprPtr> leftover;
    for (const JoinEdge& e : edges_) {
      if (e.used) continue;
      int pa = FindLayout(e.table_a, e.col_a);
      int pb = FindLayout(e.table_b, e.col_b);
      if (pa < 0 || pb < 0) {
        return Status::Internal("dangling join edge");
      }
      leftover.push_back(Eq(Col(pa, schema.field(pa).type, e.col_a),
                            Col(pb, schema.field(pb).type, e.col_b)));
    }
    if (!leftover.empty()) {
      plan = MakeFilter(std::move(plan), And(std::move(leftover)));
    }
  }

  ECODB_ASSIGN_OR_RETURN(plan, ApplyResidual(std::move(plan)));
  ECODB_ASSIGN_OR_RETURN(plan, ApplyAggregation(std::move(plan)));
  return ApplyOrderLimit(std::move(plan));
}

}  // namespace

Result<PlanNodePtr> PlanQuery(const std::string& sql_text,
                              const Catalog& catalog) {
  ECODB_ASSIGN_OR_RETURN(SelectStatement stmt, ParseSelect(sql_text));
  Planner planner(stmt, catalog);
  return planner.Plan();
}

}  // namespace ecodb::sql
