#include "ecodb/sql/parser.h"

#include "ecodb/sql/lexer.h"
#include "ecodb/util/strings.h"

namespace ecodb::sql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Result<SelectStatement> Parse();

 private:
  const Token& Cur() const { return tokens_[pos_]; }
  const Token& Ahead(size_t k) const {
    size_t i = pos_ + k;
    return i < tokens_.size() ? tokens_[i] : tokens_.back();
  }
  void Advance() {
    if (pos_ + 1 < tokens_.size()) ++pos_;
  }
  bool AcceptKeyword(const char* kw) {
    if (Cur().IsKeyword(kw)) {
      Advance();
      return true;
    }
    return false;
  }
  bool AcceptSymbol(const char* s) {
    if (Cur().IsSymbol(s)) {
      Advance();
      return true;
    }
    return false;
  }
  Status ExpectKeyword(const char* kw) {
    if (!AcceptKeyword(kw)) {
      return Status::ParseError(StrFormat("expected %s at offset %zu", kw,
                                          Cur().pos));
    }
    return Status::OK();
  }
  /// The error for a recognized SQL construct this dialect lacks, naming
  /// it instead of failing on whatever token comes after it.
  Status Unsupported(const std::string& what) const {
    return Status::ParseError(
        StrFormat("%s is not supported (offset %zu)", what.c_str(), Cur().pos));
  }
  Status ExpectSymbol(const char* s) {
    if (!AcceptSymbol(s)) {
      return Status::ParseError(
          StrFormat("expected '%s' at offset %zu", s, Cur().pos));
    }
    return Status::OK();
  }

  Result<AstExprPtr> ParseExpr() { return ParseOr(); }
  Result<AstExprPtr> ParseOr();
  Result<AstExprPtr> ParseAnd();
  Result<AstExprPtr> ParseNot();
  Result<AstExprPtr> ParseComparison();
  Result<AstExprPtr> ParseAdditive();
  Result<AstExprPtr> ParseMultiplicative();
  Result<AstExprPtr> ParsePrimary();

  std::vector<Token> tokens_;
  size_t pos_ = 0;
};

bool IsReservedTail(const Token& t) {
  // Keywords that terminate an expression / select-item list.
  static const char* kStop[] = {"FROM",  "WHERE", "GROUP", "ORDER", "LIMIT",
                                "AND",   "OR",    "AS",    "ASC",   "DESC",
                                "BY",    "JOIN",  "ON",    "INNER", "NOT",
                                "BETWEEN", "IN"};
  if (t.kind != TokenKind::kIdent) return false;
  for (const char* kw : kStop) {
    if (t.upper == kw) return true;
  }
  return false;
}

Result<AstExprPtr> Parser::ParseOr() {
  ECODB_ASSIGN_OR_RETURN(AstExprPtr left, ParseAnd());
  if (!Cur().IsKeyword("OR")) return left;
  auto node = MakeAst(AstKind::kLogical);
  node->log_op = LogicalOp::kOr;
  node->args.push_back(std::move(left));
  while (AcceptKeyword("OR")) {
    ECODB_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseAnd());
    node->args.push_back(std::move(rhs));
  }
  return node;
}

Result<AstExprPtr> Parser::ParseAnd() {
  ECODB_ASSIGN_OR_RETURN(AstExprPtr left, ParseNot());
  if (!Cur().IsKeyword("AND")) return left;
  auto node = MakeAst(AstKind::kLogical);
  node->log_op = LogicalOp::kAnd;
  node->args.push_back(std::move(left));
  while (AcceptKeyword("AND")) {
    ECODB_ASSIGN_OR_RETURN(AstExprPtr rhs, ParseNot());
    node->args.push_back(std::move(rhs));
  }
  return node;
}

Result<AstExprPtr> Parser::ParseNot() {
  if (AcceptKeyword("NOT")) {
    ECODB_ASSIGN_OR_RETURN(AstExprPtr operand, ParseNot());
    auto node = MakeAst(AstKind::kNot);
    node->args.push_back(std::move(operand));
    return node;
  }
  return ParseComparison();
}

Result<AstExprPtr> Parser::ParseComparison() {
  ECODB_ASSIGN_OR_RETURN(AstExprPtr left, ParseAdditive());

  if (Cur().IsKeyword("LIKE") ||
      (Cur().IsKeyword("NOT") && Ahead(1).IsKeyword("LIKE"))) {
    return Unsupported("LIKE");
  }
  if (Cur().IsKeyword("IS")) return Unsupported("IS [NOT] NULL");

  if (AcceptKeyword("BETWEEN")) {
    ECODB_ASSIGN_OR_RETURN(AstExprPtr lo, ParseAdditive());
    ECODB_RETURN_NOT_OK(ExpectKeyword("AND"));
    ECODB_ASSIGN_OR_RETURN(AstExprPtr hi, ParseAdditive());
    auto node = MakeAst(AstKind::kBetween);
    node->args.push_back(std::move(left));
    node->args.push_back(std::move(lo));
    node->args.push_back(std::move(hi));
    return node;
  }
  bool negated = false;
  if (Cur().IsKeyword("NOT") && Ahead(1).IsKeyword("IN")) {
    Advance();
    negated = true;
  }
  if (AcceptKeyword("IN")) {
    ECODB_RETURN_NOT_OK(ExpectSymbol("("));
    auto node = MakeAst(AstKind::kInList);
    node->args.push_back(std::move(left));
    for (;;) {
      ECODB_ASSIGN_OR_RETURN(AstExprPtr v, ParseAdditive());
      node->args.push_back(std::move(v));
      if (!AcceptSymbol(",")) break;
    }
    ECODB_RETURN_NOT_OK(ExpectSymbol(")"));
    if (negated) {
      auto wrapped = MakeAst(AstKind::kNot);
      wrapped->args.push_back(std::move(node));
      return wrapped;
    }
    return node;
  }

  struct OpMap {
    const char* sym;
    CompareOp op;
  };
  static const OpMap kOps[] = {{"=", CompareOp::kEq},  {"<>", CompareOp::kNe},
                               {"!=", CompareOp::kNe}, {"<=", CompareOp::kLe},
                               {">=", CompareOp::kGe}, {"<", CompareOp::kLt},
                               {">", CompareOp::kGt}};
  for (const OpMap& m : kOps) {
    if (Cur().IsSymbol(m.sym)) {
      Advance();
      ECODB_ASSIGN_OR_RETURN(AstExprPtr right, ParseAdditive());
      auto node = MakeAst(AstKind::kCompare);
      node->cmp_op = m.op;
      node->args.push_back(std::move(left));
      node->args.push_back(std::move(right));
      return node;
    }
  }
  return left;
}

Result<AstExprPtr> Parser::ParseAdditive() {
  ECODB_ASSIGN_OR_RETURN(AstExprPtr left, ParseMultiplicative());
  for (;;) {
    ArithOp op;
    if (Cur().IsSymbol("+")) {
      op = ArithOp::kAdd;
    } else if (Cur().IsSymbol("-")) {
      op = ArithOp::kSub;
    } else {
      return left;
    }
    Advance();
    ECODB_ASSIGN_OR_RETURN(AstExprPtr right, ParseMultiplicative());
    auto node = MakeAst(AstKind::kArith);
    node->arith_op = op;
    node->args.push_back(std::move(left));
    node->args.push_back(std::move(right));
    left = std::move(node);
  }
}

Result<AstExprPtr> Parser::ParseMultiplicative() {
  ECODB_ASSIGN_OR_RETURN(AstExprPtr left, ParsePrimary());
  for (;;) {
    ArithOp op;
    if (Cur().IsSymbol("*")) {
      op = ArithOp::kMul;
    } else if (Cur().IsSymbol("/")) {
      op = ArithOp::kDiv;
    } else {
      return left;
    }
    Advance();
    ECODB_ASSIGN_OR_RETURN(AstExprPtr right, ParsePrimary());
    auto node = MakeAst(AstKind::kArith);
    node->arith_op = op;
    node->args.push_back(std::move(left));
    node->args.push_back(std::move(right));
    left = std::move(node);
  }
}

Result<AstExprPtr> Parser::ParsePrimary() {
  const Token& t = Cur();
  switch (t.kind) {
    case TokenKind::kInt: {
      auto node = MakeAst(AstKind::kIntLit);
      node->int_value = t.int_value;
      Advance();
      return node;
    }
    case TokenKind::kDouble: {
      auto node = MakeAst(AstKind::kDoubleLit);
      node->dbl_value = t.dbl_value;
      Advance();
      return node;
    }
    case TokenKind::kString: {
      auto node = MakeAst(AstKind::kStringLit);
      node->str_value = t.text;
      Advance();
      return node;
    }
    case TokenKind::kSymbol:
      if (t.text == "(") {
        Advance();
        ECODB_ASSIGN_OR_RETURN(AstExprPtr inner, ParseExpr());
        ECODB_RETURN_NOT_OK(ExpectSymbol(")"));
        return inner;
      }
      if (t.text == "*") {
        Advance();
        return MakeAst(AstKind::kStar);
      }
      if (t.text == "-") {
        Advance();
        ECODB_ASSIGN_OR_RETURN(AstExprPtr operand, ParsePrimary());
        // Unary minus: 0 - operand.
        auto zero = MakeAst(AstKind::kIntLit);
        auto node = MakeAst(AstKind::kArith);
        node->arith_op = ArithOp::kSub;
        node->args.push_back(std::move(zero));
        node->args.push_back(std::move(operand));
        return node;
      }
      break;
    case TokenKind::kIdent: {
      if (t.upper == "CASE") return Unsupported("CASE");
      if (t.upper == "DATE" && Ahead(1).kind == TokenKind::kString) {
        Advance();
        auto node = MakeAst(AstKind::kDateLit);
        node->str_value = Cur().text;
        Advance();
        return node;
      }
      std::string name = t.text;
      std::string upper = t.upper;
      Advance();
      if (AcceptSymbol("(")) {
        auto node = MakeAst(AstKind::kFuncCall);
        node->name = upper;
        if (!Cur().IsSymbol(")")) {
          for (;;) {
            if (Cur().IsSymbol("*")) {
              Advance();
              node->args.push_back(MakeAst(AstKind::kStar));
            } else {
              ECODB_ASSIGN_OR_RETURN(AstExprPtr arg, ParseExpr());
              node->args.push_back(std::move(arg));
            }
            if (!AcceptSymbol(",")) break;
          }
        }
        ECODB_RETURN_NOT_OK(ExpectSymbol(")"));
        return node;
      }
      // Optional table qualifier: t.col — keep only the column part
      // (TPC-H column names are globally unique).
      if (AcceptSymbol(".")) {
        if (Cur().kind != TokenKind::kIdent) {
          return Status::ParseError(
              StrFormat("expected column after '.' at offset %zu", Cur().pos));
        }
        name = Cur().text;
        Advance();
      }
      auto node = MakeAst(AstKind::kColumn);
      node->name = name;
      return node;
    }
    default:
      break;
  }
  return Status::ParseError(
      StrFormat("unexpected token at offset %zu", t.pos));
}

Result<SelectStatement> Parser::Parse() {
  SelectStatement stmt;
  if (Cur().IsKeyword("EXPLAIN")) return Unsupported("EXPLAIN");
  ECODB_RETURN_NOT_OK(ExpectKeyword("SELECT"));
  if (Cur().IsKeyword("DISTINCT")) return Unsupported("SELECT DISTINCT");

  if (AcceptSymbol("*")) {
    stmt.select_star = true;
  } else {
    for (;;) {
      SelectItem item;
      ECODB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("AS")) {
        if (Cur().kind != TokenKind::kIdent) {
          return Status::ParseError(
              StrFormat("expected alias at offset %zu", Cur().pos));
        }
        item.alias = Cur().text;
        Advance();
      } else if (Cur().kind == TokenKind::kIdent && !IsReservedTail(Cur())) {
        item.alias = Cur().text;
        Advance();
      }
      stmt.items.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
  }

  ECODB_RETURN_NOT_OK(ExpectKeyword("FROM"));
  const auto table_name = [&]() -> Status {
    if (Cur().kind != TokenKind::kIdent) {
      return Status::ParseError(
          StrFormat("expected table name at offset %zu", Cur().pos));
    }
    stmt.from_tables.push_back(Cur().text);
    Advance();
    return Status::OK();
  };
  std::vector<AstExprPtr> join_conditions;
  for (;;) {
    ECODB_RETURN_NOT_OK(table_name());
    // [INNER] JOIN t ON cond, any number of times.
    for (;;) {
      for (const char* outer : {"LEFT", "RIGHT", "FULL", "OUTER"}) {
        if (Cur().IsKeyword(outer)) {
          return Unsupported(std::string(outer) + " JOIN");
        }
      }
      if (!Cur().IsKeyword("INNER") && !Cur().IsKeyword("JOIN")) break;
      AcceptKeyword("INNER");
      ECODB_RETURN_NOT_OK(ExpectKeyword("JOIN"));
      ECODB_RETURN_NOT_OK(table_name());
      ECODB_RETURN_NOT_OK(ExpectKeyword("ON"));
      ECODB_ASSIGN_OR_RETURN(AstExprPtr cond, ParseExpr());
      join_conditions.push_back(std::move(cond));
    }
    if (!AcceptSymbol(",")) break;
  }

  if (AcceptKeyword("WHERE")) {
    ECODB_ASSIGN_OR_RETURN(stmt.where, ParseExpr());
  }
  // Fold JOIN..ON conditions into WHERE (the planner extracts equi-joins).
  for (AstExprPtr& cond : join_conditions) {
    if (!stmt.where) {
      stmt.where = std::move(cond);
    } else {
      auto both = MakeAst(AstKind::kLogical);
      both->log_op = LogicalOp::kAnd;
      both->args.push_back(std::move(stmt.where));
      both->args.push_back(std::move(cond));
      stmt.where = std::move(both);
    }
  }

  if (AcceptKeyword("GROUP")) {
    ECODB_RETURN_NOT_OK(ExpectKeyword("BY"));
    for (;;) {
      ECODB_ASSIGN_OR_RETURN(AstExprPtr e, ParseExpr());
      stmt.group_by.push_back(std::move(e));
      if (!AcceptSymbol(",")) break;
    }
  }

  if (Cur().IsKeyword("HAVING")) return Unsupported("HAVING");

  if (AcceptKeyword("ORDER")) {
    ECODB_RETURN_NOT_OK(ExpectKeyword("BY"));
    for (;;) {
      OrderItem item;
      ECODB_ASSIGN_OR_RETURN(item.expr, ParseExpr());
      if (AcceptKeyword("DESC")) {
        item.ascending = false;
      } else {
        AcceptKeyword("ASC");
      }
      stmt.order_by.push_back(std::move(item));
      if (!AcceptSymbol(",")) break;
    }
  }

  if (AcceptKeyword("LIMIT")) {
    if (Cur().kind != TokenKind::kInt) {
      return Status::ParseError(
          StrFormat("expected integer after LIMIT at offset %zu", Cur().pos));
    }
    stmt.limit = Cur().int_value;
    Advance();
  }

  AcceptSymbol(";");
  if (Cur().kind != TokenKind::kEnd) {
    return Status::ParseError(
        StrFormat("trailing input at offset %zu", Cur().pos));
  }
  return stmt;
}

}  // namespace

Result<SelectStatement> ParseSelect(const std::string& sql) {
  ECODB_ASSIGN_OR_RETURN(std::vector<Token> tokens, Lex(sql));
  Parser parser(std::move(tokens));
  return parser.Parse();
}

}  // namespace ecodb::sql
