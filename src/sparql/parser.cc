#include "sparql/parser.h"

#include <algorithm>
#include <cstdlib>

#include "common/string_util.h"
#include "sparql/lexer.h"

namespace kgnet::sparql {

namespace {

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : toks_(std::move(tokens)) {}

  Result<Query> Parse() {
    Query q;
    KGNET_RETURN_IF_ERROR(ParsePrologue(&q));
    if (Peek().kind == TokenKind::kEof) return Err("empty query");
    const Token& t = Peek();
    if (t.IsKeyword("SELECT")) {
      KGNET_RETURN_IF_ERROR(ParseSelect(&q));
    } else if (t.IsKeyword("ASK")) {
      Next();
      q.kind = QueryKind::kAsk;
      KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(&q, &q.where));
    } else if (t.IsKeyword("INSERT")) {
      KGNET_RETURN_IF_ERROR(ParseInsert(&q));
    } else if (t.IsKeyword("DELETE")) {
      KGNET_RETURN_IF_ERROR(ParseDelete(&q));
    } else {
      return Err("expected SELECT, ASK, INSERT or DELETE");
    }
    if (!Peek().IsPunct(";") && Peek().kind != TokenKind::kEof) {
      // Allow a trailing ';'.
      return Err("unexpected trailing tokens");
    }
    return q;
  }

 private:
  // Peek/Next never run off the token vector, even if it is empty or
  // lacks a trailing kEof (the lexer appends one, but the parser must not
  // rely on it — indexing toks_.back() on an empty vector, or the
  // toks_.size() - 1 underflow, was UB).
  const Token& Peek(size_t ahead = 0) const {
    size_t i = pos_ + ahead;
    return i < toks_.size() ? toks_[i] : eof_;
  }
  const Token& Next() {
    const Token& t = Peek();
    if (pos_ + 1 < toks_.size()) ++pos_;
    return t;
  }
  bool Accept(std::string_view punct) {
    if (Peek().IsPunct(punct)) {
      Next();
      return true;
    }
    return false;
  }
  bool AcceptKeyword(std::string_view kw) {
    if (Peek().IsKeyword(kw)) {
      Next();
      return true;
    }
    return false;
  }
  Status Expect(std::string_view punct) {
    if (!Accept(punct))
      return Err("expected '" + std::string(punct) + "' but found '" +
                 Peek().text + "'");
    return Status::OK();
  }
  Status Err(std::string msg) const {
    return Status::ParseError(msg + " (near offset " +
                              std::to_string(Peek().offset) + ")");
  }
  Status TooDeep() const {
    return Status::InvalidArgument(
        "query nesting deeper than " + std::to_string(kMaxNestingDepth) +
        " levels (near offset " + std::to_string(Peek().offset) + ")");
  }

  Status TooManyPatterns() const {
    return Status::InvalidArgument(
        "WHERE clause has more than " + std::to_string(kMaxWherePatterns) +
        " triple patterns (near offset " + std::to_string(Peek().offset) +
        ")");
  }

  /// Parses an INSERT DATA block or an update template: a group whose
  /// triples do not count against kMaxWherePatterns.
  Status ParseTemplate(Query* q, GraphPattern* gp) {
    count_patterns_ = false;
    Status st = ParseGroupGraphPattern(q, gp);
    count_patterns_ = true;
    return st;
  }

  /// One level of recursion, held for the scope of a nested parse.
  class Level {
   public:
    explicit Level(int* depth) : depth_(depth) { ++*depth_; }
    ~Level() { --*depth_; }
    Level(const Level&) = delete;
    Level& operator=(const Level&) = delete;
    bool too_deep() const { return *depth_ > kMaxNestingDepth; }

   private:
    int* depth_;
  };

  /// Records `height` as the height of the expression just parsed.
  Status SetHeight(int height) {
    if (height > kMaxNestingDepth) return TooDeep();
    height_ = height;
    return Status::OK();
  }

  Status ParsePrologue(Query* q) {
    while (Peek().IsKeyword("PREFIX")) {
      Next();
      const Token& name = Next();
      if (name.kind != TokenKind::kPname || !EndsWith(name.text, ":")) {
        // Allow "PREFIX dblp : <...>": pname token may carry the colon or
        // the colon may lex as part of pname with empty local.
        if (name.kind != TokenKind::kPname)
          return Err("expected prefix name after PREFIX");
      }
      std::string prefix = name.text;
      if (!prefix.empty() && prefix.back() == ':') prefix.pop_back();
      // Strip any accidental local part (e.g. "dblp:" lexes clean).
      const Token& iri = Next();
      if (iri.kind != TokenKind::kIri)
        return Err("expected IRI after PREFIX " + prefix);
      q->prefixes[prefix] = iri.text;
    }
    return Status::OK();
  }

  Status ParseSelect(Query* q) {
    Next();  // SELECT
    q->kind = QueryKind::kSelect;
    if (AcceptKeyword("DISTINCT")) q->distinct = true;
    if (Accept("*")) {
      q->select_all = true;
    } else {
      while (true) {
        const Token& t = Peek();
        if (t.IsKeyword("WHERE") || t.IsPunct("{") ||
            t.kind == TokenKind::kEof)
          break;
        SelectItem item;
        if (t.kind == TokenKind::kVar) {
          item.expr = Expr::Var(t.text);
          item.alias = t.text;
          Next();
          // optional "AS ?alias" even for a variable
          if (AcceptKeyword("AS")) {
            const Token& a = Next();
            if (a.kind != TokenKind::kVar) return Err("expected ?var after AS");
            item.alias = a.text;
          }
        } else {
          KGNET_ASSIGN_OR_RETURN(ExprPtr e, ParsePrimaryExpr());
          item.expr = e;
          if (AcceptKeyword("AS")) {
            const Token& a = Next();
            if (a.kind != TokenKind::kVar) return Err("expected ?var after AS");
            item.alias = a.text;
          } else {
            return Err("projection expression requires AS ?alias");
          }
        }
        q->select.push_back(std::move(item));
      }
      if (q->select.empty()) return Err("empty SELECT projection");
    }
    AcceptKeyword("WHERE");
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &q->where));
    // Solution modifiers.
    while (true) {
      if (AcceptKeyword("LIMIT")) {
        const Token& t = Next();
        if (t.kind != TokenKind::kNumber) return Err("expected number");
        q->limit = std::atoll(t.text.c_str());
      } else if (AcceptKeyword("OFFSET")) {
        const Token& t = Next();
        if (t.kind != TokenKind::kNumber) return Err("expected number");
        q->offset = std::atoll(t.text.c_str());
      } else {
        break;
      }
    }
    return Status::OK();
  }

  Status ParseInsert(Query* q) {
    Next();  // INSERT
    if (AcceptKeyword("DATA")) {
      q->kind = QueryKind::kInsertData;
      GraphPattern data;
      KGNET_RETURN_IF_ERROR(ParseTemplate(q, &data));
      q->update_template = std::move(data.triples);
      return Status::OK();
    }
    if (AcceptKeyword("INTO")) {
      const Token& g = Next();
      if (g.kind != TokenKind::kIri && g.kind != TokenKind::kPname)
        return Err("expected graph IRI after INTO");
      q->into_graph =
          g.kind == TokenKind::kIri ? g.text : ResolvePname(*q, g.text);
    }
    q->kind = QueryKind::kInsertWhere;
    GraphPattern tmpl;
    KGNET_RETURN_IF_ERROR(ParseTemplate(q, &tmpl));
    q->update_template = std::move(tmpl.triples);
    if (!AcceptKeyword("WHERE")) return Err("expected WHERE after INSERT {}");
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &q->where));
    return Status::OK();
  }

  Status ParseDelete(Query* q) {
    Next();  // DELETE
    q->kind = QueryKind::kDeleteWhere;
    GraphPattern tmpl;
    KGNET_RETURN_IF_ERROR(ParseTemplate(q, &tmpl));
    q->update_template = std::move(tmpl.triples);
    if (!AcceptKeyword("WHERE")) return Err("expected WHERE after DELETE {}");
    KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &q->where));
    return Status::OK();
  }

  Status ParseGroupGraphPattern(Query* q, GraphPattern* gp) {
    const Level level(&depth_);
    if (level.too_deep()) return TooDeep();
    KGNET_RETURN_IF_ERROR(Expect("{"));
    while (!Peek().IsPunct("}")) {
      if (Peek().kind == TokenKind::kEof) return Err("unterminated '{'");
      if (Peek().IsKeyword("FILTER")) {
        Next();
        KGNET_RETURN_IF_ERROR(Expect("("));
        KGNET_ASSIGN_OR_RETURN(ExprPtr e, ParseExpr(q));
        KGNET_RETURN_IF_ERROR(Expect(")"));
        gp->filters.push_back(std::move(e));
        Accept(".");
        continue;
      }
      if (Peek().IsKeyword("OPTIONAL")) {
        Next();
        GraphPattern opt;
        KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &opt));
        gp->optionals.push_back(std::move(opt));
        Accept(".");
        continue;
      }
      if (Peek().IsPunct("{")) {
        if (Peek(1).IsKeyword("SELECT")) {
          // Inline sub-SELECT: { SELECT ... }
          Next();
          auto sub = std::make_shared<Query>();
          sub->prefixes = q->prefixes;
          KGNET_RETURN_IF_ERROR(ParseSelect(sub.get()));
          KGNET_RETURN_IF_ERROR(Expect("}"));
          gp->subselects.push_back(std::move(sub));
          Accept(".");
          continue;
        }
        // Group, possibly a UNION chain: {A} UNION {B} UNION ...
        std::vector<GraphPattern> alternatives;
        GraphPattern first;
        KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &first));
        alternatives.push_back(std::move(first));
        while (AcceptKeyword("UNION")) {
          GraphPattern alt;
          KGNET_RETURN_IF_ERROR(ParseGroupGraphPattern(q, &alt));
          alternatives.push_back(std::move(alt));
        }
        if (alternatives.size() == 1) {
          // A plain nested group: inline its contents.
          GraphPattern& inner = alternatives.front();
          for (auto& t : inner.triples) gp->triples.push_back(std::move(t));
          for (auto& f : inner.filters) gp->filters.push_back(std::move(f));
          for (auto& s : inner.subselects)
            gp->subselects.push_back(std::move(s));
          for (auto& u : inner.unions) gp->unions.push_back(std::move(u));
          for (auto& o : inner.optionals)
            gp->optionals.push_back(std::move(o));
        } else {
          gp->unions.push_back(std::move(alternatives));
        }
        Accept(".");
        continue;
      }
      // Triples block: subject (predicate object (';' predicate object)*) '.'
      KGNET_ASSIGN_OR_RETURN(NodeRef s, ParseNode(*q));
      while (true) {
        KGNET_ASSIGN_OR_RETURN(NodeRef p, ParseNode(*q));
        KGNET_ASSIGN_OR_RETURN(NodeRef o, ParseNode(*q));
        if (count_patterns_ && ++where_patterns_ > kMaxWherePatterns)
          return TooManyPatterns();
        gp->triples.push_back(PatternTriple{s, p, o});
        if (Accept(";")) {
          if (Peek().IsPunct(".") || Peek().IsPunct("}")) {
            Accept(".");
            break;
          }
          continue;  // same subject, new predicate/object
        }
        Accept(".");
        break;
      }
    }
    return Expect("}");
  }

  Result<NodeRef> ParseNode(const Query& q) {
    const Token& t = Peek();
    switch (t.kind) {
      case TokenKind::kVar:
        Next();
        return NodeRef::Var(t.text);
      case TokenKind::kIri:
        Next();
        return NodeRef::Const(rdf::Term::Iri(t.text));
      case TokenKind::kPname: {
        Next();
        return NodeRef::Const(rdf::Term::Iri(ResolvePname(q, t.text)));
      }
      case TokenKind::kString: {
        Next();
        rdf::Term lit = rdf::Term::Literal(t.text);
        if (!t.extra.empty()) {
          if (t.extra[0] == '@') {
            lit.lang = t.extra.substr(1);
          } else {
            lit.datatype = t.extra;
          }
        }
        return NodeRef::Const(std::move(lit));
      }
      case TokenKind::kNumber: {
        Next();
        if (t.text.find('.') != std::string::npos)
          return NodeRef::Const(
              rdf::Term::DoubleLiteral(std::atof(t.text.c_str())));
        return NodeRef::Const(
            rdf::Term::IntLiteral(std::atoll(t.text.c_str())));
      }
      case TokenKind::kKeyword:
        if (t.text == "A") {
          Next();
          return NodeRef::Const(rdf::Term::Iri(std::string(rdf::kRdfType)));
        }
        if (t.text == "TRUE" || t.text == "FALSE") {
          Next();
          return NodeRef::Const(rdf::Term::TypedLiteral(
              t.text == "TRUE" ? "true" : "false",
              "http://www.w3.org/2001/XMLSchema#boolean"));
        }
        break;
      default:
        break;
    }
    return Err("expected variable, IRI, literal or 'a', found '" + t.text +
               "'");
  }

  // Every expression parser leaves the height of the tree it returns in
  // height_. The operator chains below build left-deep trees in a loop,
  // so their height is checked per link, not by recursion depth.

  // expr := andExpr ('||' andExpr)*
  Result<ExprPtr> ParseExpr(Query* q) {
    KGNET_ASSIGN_OR_RETURN(ExprPtr lhs, ParseAndExpr(q));
    int height = height_;
    while (Peek().IsPunct("||")) {
      Next();
      KGNET_ASSIGN_OR_RETURN(ExprPtr rhs, ParseAndExpr(q));
      height = 1 + std::max(height, height_);
      KGNET_RETURN_IF_ERROR(SetHeight(height));
      lhs = Expr::Binary(ExprOp::kOr, lhs, rhs);
    }
    height_ = height;
    return lhs;
  }

  Result<ExprPtr> ParseAndExpr(Query* q) {
    KGNET_ASSIGN_OR_RETURN(ExprPtr lhs, ParseCmpExpr(q));
    int height = height_;
    while (Peek().IsPunct("&&")) {
      Next();
      KGNET_ASSIGN_OR_RETURN(ExprPtr rhs, ParseCmpExpr(q));
      height = 1 + std::max(height, height_);
      KGNET_RETURN_IF_ERROR(SetHeight(height));
      lhs = Expr::Binary(ExprOp::kAnd, lhs, rhs);
    }
    height_ = height;
    return lhs;
  }

  Result<ExprPtr> ParseCmpExpr(Query* q) {
    KGNET_ASSIGN_OR_RETURN(ExprPtr lhs, ParseUnaryExpr(q));
    const int lhs_height = height_;
    const Token& t = Peek();
    ExprOp op;
    if (t.IsPunct("=")) {
      op = ExprOp::kEq;
    } else if (t.IsPunct("!=")) {
      op = ExprOp::kNe;
    } else if (t.IsPunct("<")) {
      op = ExprOp::kLt;
    } else if (t.IsPunct("<=")) {
      op = ExprOp::kLe;
    } else if (t.IsPunct(">")) {
      op = ExprOp::kGt;
    } else if (t.IsPunct(">=")) {
      op = ExprOp::kGe;
    } else {
      return lhs;
    }
    Next();
    KGNET_ASSIGN_OR_RETURN(ExprPtr rhs, ParseUnaryExpr(q));
    KGNET_RETURN_IF_ERROR(SetHeight(1 + std::max(lhs_height, height_)));
    return Expr::Binary(op, lhs, rhs);
  }

  Result<ExprPtr> ParseUnaryExpr(Query* q) {
    if (Peek().IsPunct("!")) {
      Next();
      const Level level(&depth_);
      if (level.too_deep()) return TooDeep();
      KGNET_ASSIGN_OR_RETURN(ExprPtr inner, ParseUnaryExpr(q));
      KGNET_RETURN_IF_ERROR(SetHeight(1 + height_));
      auto e = std::make_shared<Expr>();
      e->op = ExprOp::kNot;
      e->args = {inner};
      return e;
    }
    if (Peek().IsPunct("(")) {
      Next();
      const Level level(&depth_);
      if (level.too_deep()) return TooDeep();
      KGNET_ASSIGN_OR_RETURN(ExprPtr inner, ParseExpr(q));
      KGNET_RETURN_IF_ERROR(Expect(")"));
      return inner;
    }
    return ParsePrimaryExpr();
  }

  // Primary: var | literal | IRI | function call (pname/ident followed by
  // '(' args ')').
  Result<ExprPtr> ParsePrimaryExpr() {
    const Token& t = Peek();
    height_ = 1;
    if (t.kind == TokenKind::kVar) {
      Next();
      return Expr::Var(t.text);
    }
    if (t.kind == TokenKind::kString) {
      Next();
      rdf::Term lit = rdf::Term::Literal(t.text);
      if (!t.extra.empty()) {
        if (t.extra[0] == '@') {
          lit.lang = t.extra.substr(1);
        } else {
          lit.datatype = t.extra;
        }
      }
      return Expr::Const(std::move(lit));
    }
    if (t.kind == TokenKind::kNumber) {
      Next();
      if (t.text.find('.') != std::string::npos)
        return Expr::Const(rdf::Term::DoubleLiteral(std::atof(t.text.c_str())));
      return Expr::Const(rdf::Term::IntLiteral(std::atoll(t.text.c_str())));
    }
    if (t.kind == TokenKind::kIri) {
      Next();
      return Expr::Const(rdf::Term::Iri(t.text));
    }
    if (t.kind == TokenKind::kPname || t.kind == TokenKind::kIdent ||
        t.kind == TokenKind::kKeyword) {
      // Function call keeps its written name (e.g. sql:UDFS.getNodeClass).
      std::string name = t.text;
      Next();
      if (Peek().IsPunct("(")) {
        Next();
        const Level level(&depth_);
        if (level.too_deep()) return TooDeep();
        std::vector<ExprPtr> args;
        int height = 1;
        if (!Peek().IsPunct(")")) {
          while (true) {
            KGNET_ASSIGN_OR_RETURN(ExprPtr a, ParseCallArg());
            height = std::max(height, 1 + height_);
            args.push_back(std::move(a));
            if (!Accept(",")) break;
          }
        }
        KGNET_RETURN_IF_ERROR(Expect(")"));
        KGNET_RETURN_IF_ERROR(SetHeight(height));
        return Expr::Call(name, std::move(args));
      }
      // Bare pname used as an IRI constant in an expression.
      if (t.kind == TokenKind::kPname)
        return Expr::Const(rdf::Term::Iri(name));
      return Err("unexpected identifier '" + name + "' in expression");
    }
    return Err("cannot parse expression at '" + t.text + "'");
  }

  Result<ExprPtr> ParseCallArg() { return ParsePrimaryExpr(); }

  std::string ResolvePname(const Query& q, const std::string& pname) const {
    size_t colon = pname.find(':');
    if (colon == std::string::npos) return pname;
    std::string prefix = pname.substr(0, colon);
    std::string local = pname.substr(colon + 1);
    auto it = q.prefixes.find(prefix);
    if (it == q.prefixes.end()) return pname;  // unresolvable: keep raw
    return it->second + local;
  }

  std::vector<Token> toks_;
  size_t pos_ = 0;
  int depth_ = 0;   // open nesting levels (see kMaxNestingDepth)
  int height_ = 0;  // height of the expression tree parsed last
  int where_patterns_ = 0;     // WHERE triple patterns so far
  bool count_patterns_ = true;  // false inside INSERT DATA / templates
  Token eof_;  // fallback when toks_ is empty / exhausted (kind == kEof)
};

}  // namespace

Result<Query> ParseQuery(std::string_view text) {
  KGNET_ASSIGN_OR_RETURN(std::vector<Token> toks, Tokenize(text));
  Parser parser(std::move(toks));
  return parser.Parse();
}

}  // namespace kgnet::sparql
