// Randomized differential harness for the streaming executor.
//
// Each seeded case generates a random graph and a random query mixing
// BGP joins, FILTERs, UNION chains, OPTIONAL groups and LIMIT/OFFSET,
// then checks that
// the engine's row multiset matches a deliberately naive brute-force
// reference evaluator (nested loops over the full triple list, no
// indexes, no planner) — the single reference the executor is checked
// against. SPARQL updates get the same treatment (the update oracle at
// the end): the post-update store is compared triple for triple against
// the reference solutions instantiated into the update template.
#include <gtest/gtest.h>

#include <algorithm>
#include <charconv>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "common/thread_pool.h"
#include "sparql/engine.h"
#include "sparql/exec.h"
#include "sparql/parser.h"
#include "tensor/rng.h"
#include "tests/parallel_test_util.h"

namespace kgnet::sparql {
namespace {

using rdf::Term;

// ------------------------------------------------------ reference model --

/// A term as the reference sees it: an IRI or a literal lexical form.
struct RTerm {
  bool iri = true;
  std::string lex;

  bool operator==(const RTerm& o) const {
    return iri == o.iri && lex == o.lex;
  }
  bool operator<(const RTerm& o) const {
    return std::tie(iri, lex) < std::tie(o.iri, o.lex);
  }
};

struct RTriple {
  RTerm s, p, o;
  bool operator<(const RTriple& t) const {
    return std::tie(s, p, o) < std::tie(t.s, t.p, t.o);
  }
};

/// The store term for a reference term: an IRI or an xsd:integer literal.
Term ToTerm(const RTerm& t) {
  return t.iri ? Term::Iri(t.lex)
               : Term::TypedLiteral(
                     t.lex, "http://www.w3.org/2001/XMLSchema#integer");
}

/// A pattern position: a variable name or a constant.
struct RNode {
  bool is_var = false;
  std::string var;
  RTerm term;

  static RNode Var(std::string v) {
    RNode n;
    n.is_var = true;
    n.var = std::move(v);
    return n;
  }
  static RNode Const(RTerm t) {
    RNode n;
    n.term = std::move(t);
    return n;
  }
};

struct RPattern {
  RNode s, p, o;
};

enum class ROp { kEq, kNe, kLt, kLe, kGt, kGe };

struct RFilter {
  ROp op;
  RNode lhs, rhs;  // variables or constants
};

using Binding = std::map<std::string, RTerm>;

bool TryDouble(const RTerm& t, double* out) {
  // Mirrors Term::AsDouble: literals whose full lexical form parses.
  if (t.iri || t.lex.empty()) return false;
  const char* begin = t.lex.data();
  const char* end = begin + t.lex.size();
  auto [ptr, ec] = std::from_chars(begin, end, *out);
  return ec == std::errc() && ptr == end;
}

/// Mirrors the engine's comparison semantics (EvalExpr in exec.cc):
/// numeric when both sides parse as numbers, otherwise kind-aware
/// lexical comparison.
bool RefCompare(ROp op, const RTerm& l, const RTerm& r) {
  double ld, rd;
  int cmp;
  if (TryDouble(l, &ld) && TryDouble(r, &rd)) {
    cmp = ld < rd ? -1 : (ld > rd ? 1 : 0);
  } else {
    if (l.iri != r.iri && (op == ROp::kEq || op == ROp::kNe))
      return op == ROp::kNe;
    int c = l.lex.compare(r.lex);
    cmp = c < 0 ? -1 : (c > 0 ? 1 : 0);
  }
  switch (op) {
    case ROp::kEq:
      return cmp == 0;
    case ROp::kNe:
      return cmp != 0;
    case ROp::kLt:
      return cmp < 0;
    case ROp::kLe:
      return cmp <= 0;
    case ROp::kGt:
      return cmp > 0;
    case ROp::kGe:
      return cmp >= 0;
  }
  return false;
}

const RTerm* ResolveRef(const RNode& n, const Binding& b) {
  if (!n.is_var) return &n.term;
  auto it = b.find(n.var);
  return it == b.end() ? nullptr : &it->second;
}

bool MatchPosition(const RNode& n, const RTerm& value, Binding* b) {
  if (!n.is_var) return n.term == value;
  auto it = b->find(n.var);
  if (it != b->end()) return it->second == value;
  b->emplace(n.var, value);
  return true;
}

std::vector<Binding> RefEvalBgp(const std::vector<RPattern>& patterns,
                                const std::vector<RTriple>& facts,
                                std::vector<Binding> sols) {
  for (const RPattern& pat : patterns) {
    std::vector<Binding> next;
    for (const Binding& sol : sols) {
      for (const RTriple& f : facts) {
        Binding ext = sol;
        if (MatchPosition(pat.s, f.s, &ext) &&
            MatchPosition(pat.p, f.p, &ext) &&
            MatchPosition(pat.o, f.o, &ext))
          next.push_back(std::move(ext));
      }
    }
    sols = std::move(next);
  }
  return sols;
}

/// Full reference evaluation: BGP, then filters (all their variables are
/// core BGP variables, so they are always bound), then dependent UNION
/// chains (each solution multiplies by its matching alternatives and is
/// dropped when none match), then OPTIONAL left joins — mirroring the
/// engine's group-evaluation order.
std::vector<Binding> RefEval(const std::vector<RPattern>& patterns,
                             const std::vector<RFilter>& filters,
                             const std::vector<std::vector<RPattern>>& unions,
                             const std::vector<RPattern>& optionals,
                             const std::vector<RTriple>& facts) {
  std::vector<Binding> sols = RefEvalBgp(patterns, facts, {Binding{}});
  std::vector<Binding> filtered;
  for (const Binding& sol : sols) {
    bool pass = true;
    for (const RFilter& f : filters) {
      const RTerm* l = ResolveRef(f.lhs, sol);
      const RTerm* r = ResolveRef(f.rhs, sol);
      if (l == nullptr || r == nullptr) continue;  // never-ready: ignored
      if (!RefCompare(f.op, *l, *r)) {
        pass = false;
        break;
      }
    }
    if (pass) filtered.push_back(sol);
  }
  sols = std::move(filtered);
  for (const std::vector<RPattern>& alternatives : unions) {
    std::vector<Binding> merged;
    for (const RPattern& alt : alternatives) {
      std::vector<Binding> branch = RefEvalBgp({alt}, facts, sols);
      merged.insert(merged.end(), branch.begin(), branch.end());
    }
    sols = std::move(merged);
  }
  for (const RPattern& opt : optionals) {
    std::vector<Binding> joined;
    for (const Binding& sol : sols) {
      std::vector<Binding> ext = RefEvalBgp({opt}, facts, {sol});
      if (ext.empty())
        joined.push_back(sol);
      else
        joined.insert(joined.end(), ext.begin(), ext.end());
    }
    sols = std::move(joined);
  }
  return sols;
}

// -------------------------------------------------------- case generator --

std::string NodeSparql(const RNode& n) {
  if (n.is_var) return "?" + n.var;
  if (n.term.iri) return "<" + n.term.lex + ">";
  return n.term.lex;  // numeric literal
}

const char* OpSparql(ROp op) {
  switch (op) {
    case ROp::kEq:
      return "=";
    case ROp::kNe:
      return "!=";
    case ROp::kLt:
      return "<";
    case ROp::kLe:
      return "<=";
    case ROp::kGt:
      return ">";
    case ROp::kGe:
      return ">=";
  }
  return "=";
}

struct Case {
  std::vector<RTriple> facts;
  std::vector<RPattern> patterns;
  std::vector<RFilter> filters;
  std::vector<std::vector<RPattern>> unions;  // chains of alternatives
  std::vector<RPattern> optionals;
  bool distinct = false;
  int64_t limit = -1;
  int64_t offset = 0;
  std::string sparql;
};

/// Feature toggles so each TEST below emphasizes one query shape while
/// all of them share the generator.
struct GenOptions {
  bool filters = false;
  bool unions = false;
  bool optionals = false;
  bool modifiers = false;  // LIMIT / OFFSET
  bool distinct = false;   // SELECT DISTINCT
};

/// The WHERE group of `c` — patterns, filters, UNION chains, OPTIONALs —
/// as SPARQL text, braces included.
std::string GroupSparql(const Case& c) {
  std::string q = "{ ";
  for (const RPattern& p : c.patterns)
    q += NodeSparql(p.s) + " " + NodeSparql(p.p) + " " + NodeSparql(p.o) +
         " . ";
  for (const RFilter& f : c.filters)
    q += "FILTER(" + NodeSparql(f.lhs) + " " + OpSparql(f.op) + " " +
         NodeSparql(f.rhs) + ") ";
  for (const auto& alternatives : c.unions) {
    for (size_t i = 0; i < alternatives.size(); ++i) {
      if (i > 0) q += "UNION ";
      const RPattern& p = alternatives[i];
      q += "{ " + NodeSparql(p.s) + " " + NodeSparql(p.p) + " " +
           NodeSparql(p.o) + " . } ";
    }
  }
  for (const RPattern& p : c.optionals)
    q += "OPTIONAL { " + NodeSparql(p.s) + " " + NodeSparql(p.p) + " " +
         NodeSparql(p.o) + " . } ";
  q += "}";
  return q;
}

Case GenerateCase(tensor::Rng* rng, const GenOptions& opts) {
  Case c;
  const int nodes = 4 + static_cast<int>(rng->NextUint(10));
  const int preds = 2 + static_cast<int>(rng->NextUint(3));
  const int ntrip = 15 + static_cast<int>(rng->NextUint(45));

  auto node = [&](int i) {
    return RTerm{true, "n" + std::to_string(i)};
  };
  auto pred = [&](int i) {
    return RTerm{true, "p" + std::to_string(i)};
  };

  std::set<RTriple> fact_set;
  for (int i = 0; i < ntrip; ++i) {
    fact_set.insert({node(static_cast<int>(rng->NextUint(nodes))),
                     pred(static_cast<int>(rng->NextUint(preds))),
                     node(static_cast<int>(rng->NextUint(nodes)))});
  }
  // Half the cases also carry a numeric attribute for range filters.
  const bool with_ranks = rng->NextFloat() < 0.5f;
  if (with_ranks) {
    for (int i = 0; i < nodes; ++i)
      fact_set.insert({node(i), RTerm{true, "rank"},
                       RTerm{false, std::to_string(rng->NextUint(10))}});
  }
  c.facts.assign(fact_set.begin(), fact_set.end());

  // Core BGP: 1-3 patterns over a small variable pool; constant
  // predicates except for an occasional variable-predicate pattern.
  const char* pool[] = {"a", "b", "c"};
  const int npat = 1 + static_cast<int>(rng->NextUint(3));
  bool used_var_pred = false;
  std::set<std::string> node_vars;
  for (int i = 0; i < npat; ++i) {
    RPattern pat;
    if (rng->NextFloat() < 0.7f) {
      std::string v = pool[rng->NextUint(3)];
      pat.s = RNode::Var(v);
      node_vars.insert(v);
    } else {
      pat.s = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
    }
    if (!used_var_pred && rng->NextFloat() < 0.1f) {
      pat.p = RNode::Var("pp");
      used_var_pred = true;
    } else {
      pat.p = RNode::Const(pred(static_cast<int>(rng->NextUint(preds))));
    }
    if (rng->NextFloat() < 0.6f) {
      std::string v = pool[rng->NextUint(3)];
      pat.o = RNode::Var(v);
      node_vars.insert(v);
    } else {
      pat.o = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
    }
    c.patterns.push_back(std::move(pat));
  }

  if (opts.filters && !node_vars.empty() && rng->NextFloat() < 0.8f) {
    std::vector<std::string> vars(node_vars.begin(), node_vars.end());
    if (with_ranks && rng->NextFloat() < 0.5f) {
      // Numeric range filter over a rank attribute of a bound variable.
      std::string v = vars[rng->NextUint(vars.size())];
      RPattern rank_pat;
      rank_pat.s = RNode::Var(v);
      rank_pat.p = RNode::Const(RTerm{true, "rank"});
      rank_pat.o = RNode::Var("r");
      c.patterns.push_back(std::move(rank_pat));
      const ROp ops[] = {ROp::kLt, ROp::kLe, ROp::kGt, ROp::kGe,
                         ROp::kEq, ROp::kNe};
      RFilter f;
      f.op = ops[rng->NextUint(6)];
      f.lhs = RNode::Var("r");
      f.rhs = RNode::Const(
          RTerm{false, std::to_string(rng->NextUint(10))});
      c.filters.push_back(std::move(f));
    } else if (vars.size() >= 2 && rng->NextFloat() < 0.4f) {
      RFilter f;
      f.op = rng->NextFloat() < 0.5f ? ROp::kEq : ROp::kNe;
      f.lhs = RNode::Var(vars[0]);
      f.rhs = RNode::Var(vars[1]);
      c.filters.push_back(std::move(f));
    } else {
      RFilter f;
      f.op = rng->NextFloat() < 0.5f ? ROp::kEq : ROp::kNe;
      f.lhs = RNode::Var(vars[rng->NextUint(vars.size())]);
      f.rhs = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
      c.filters.push_back(std::move(f));
    }
  }

  if (opts.unions && !node_vars.empty() && rng->NextFloat() < 0.8f) {
    // One UNION chain of 2-3 single-pattern alternatives. Each branch
    // shares a variable with the core BGP (so the chain is a dependent
    // union) and may bind a branch-private variable — the heterogeneous
    // case where some output rows leave slots unbound.
    std::vector<std::string> vars(node_vars.begin(), node_vars.end());
    const int nalts = 2 + (rng->NextFloat() < 0.3f ? 1 : 0);
    std::vector<RPattern> alternatives;
    for (int i = 0; i < nalts; ++i) {
      RPattern alt;
      alt.s = RNode::Var(vars[rng->NextUint(vars.size())]);
      alt.p = RNode::Const(pred(static_cast<int>(rng->NextUint(preds))));
      const float kind = rng->NextFloat();
      if (kind < 0.4f) {
        alt.o = RNode::Var("u" + std::to_string(i));  // branch-private
      } else if (kind < 0.7f) {
        alt.o = RNode::Var(vars[rng->NextUint(vars.size())]);
      } else {
        alt.o = RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
      }
      alternatives.push_back(std::move(alt));
    }
    c.unions.push_back(std::move(alternatives));
  }

  if (opts.optionals && !node_vars.empty() && rng->NextFloat() < 0.7f) {
    std::vector<std::string> vars(node_vars.begin(), node_vars.end());
    RPattern opt;
    opt.s = RNode::Var(vars[rng->NextUint(vars.size())]);
    opt.p = RNode::Const(pred(static_cast<int>(rng->NextUint(preds))));
    opt.o = rng->NextFloat() < 0.7f
                ? RNode::Var("x")
                : RNode::Const(node(static_cast<int>(rng->NextUint(nodes))));
    c.optionals.push_back(std::move(opt));
  }

  if (opts.modifiers) {
    if (rng->NextFloat() < 0.7f)
      c.limit = 1 + static_cast<int64_t>(rng->NextUint(8));
    if (rng->NextFloat() < 0.3f)
      c.offset = static_cast<int64_t>(rng->NextUint(4));
  }
  if (opts.distinct) c.distinct = rng->NextFloat() < 0.8f;

  std::string q = c.distinct ? "SELECT DISTINCT * WHERE " : "SELECT * WHERE ";
  q += GroupSparql(c);
  if (c.limit >= 0) q += " LIMIT " + std::to_string(c.limit);
  if (c.offset > 0) q += " OFFSET " + std::to_string(c.offset);
  c.sparql = q;
  return c;
}

// ------------------------------------------------------------ comparison --

/// Engine rows rendered as comparable string tuples, sorted.
std::vector<std::vector<std::string>> EngineRows(const QueryResult& r) {
  std::vector<std::vector<std::string>> rows;
  for (const auto& row : r.rows) {
    std::vector<std::string> cells;
    for (const Term& t : row)
      cells.push_back(t.is_undef() ? "u:"
                                   : (t.is_iri() ? "i:" : "l:") + t.lexical);
    rows.push_back(std::move(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// Reference bindings rendered against the engine's column list.
std::vector<std::vector<std::string>> RefRows(
    const std::vector<Binding>& sols, const std::vector<std::string>& cols) {
  std::vector<std::vector<std::string>> rows;
  for (const Binding& sol : sols) {
    std::vector<std::string> cells;
    for (const std::string& col : cols) {
      auto it = sol.find(col);
      if (it == sol.end()) {
        cells.push_back("u:");  // unbound projects as an explicit UNDEF
      } else {
        cells.push_back((it->second.iri ? "i:" : "l:") + it->second.lex);
      }
    }
    rows.push_back(std::move(cells));
  }
  std::sort(rows.begin(), rows.end());
  return rows;
}

/// True when `sub` is a sub-multiset of `full` (both sorted).
bool IsSubMultiset(const std::vector<std::vector<std::string>>& sub,
                   const std::vector<std::vector<std::string>>& full) {
  size_t j = 0;
  for (const auto& row : sub) {
    while (j < full.size() && full[j] < row) ++j;
    if (j >= full.size() || full[j] != row) return false;
    ++j;
  }
  return true;
}

void RunSeeds(uint64_t first_seed, int count, const GenOptions& opts) {
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = first_seed + static_cast<uint64_t>(i);
    tensor::Rng rng(seed);
    Case c = GenerateCase(&rng, opts);

    // The store configuration rotates with the seed so the differential
    // cases also cover the classic-trio index subset (planner fallback
    // when a permutation is absent) and tiny compressed-block sizes
    // (cursor decode across many block boundaries).
    rdf::TripleStore::Options sopts;
    if (seed % 3 == 1)
      sopts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
    if (seed % 2 == 1) sopts.block_size = 1 + seed % 5;
    rdf::TripleStore store(sopts);
    for (const RTriple& f : c.facts)
      store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));

    QueryEngine engine(&store);
    auto streamed = engine.ExecuteString(c.sparql);
    ASSERT_TRUE(streamed.ok())
        << streamed.status() << "\nseed=" << seed << "\n" << c.sparql;

    std::vector<Binding> oracle =
        RefEval(c.patterns, c.filters, c.unions, c.optionals, c.facts);
    auto engine_rows = EngineRows(*streamed);
    auto oracle_rows = RefRows(oracle, streamed->columns);
    if (c.distinct)
      oracle_rows.erase(std::unique(oracle_rows.begin(), oracle_rows.end()),
                        oracle_rows.end());

    const size_t total = oracle_rows.size();
    const size_t after_offset =
        c.offset >= static_cast<int64_t>(total)
            ? 0
            : total - static_cast<size_t>(c.offset);
    const size_t expected =
        c.limit >= 0 ? std::min<size_t>(after_offset, c.limit) : after_offset;

    ASSERT_EQ(engine_rows.size(), expected)
        << "seed=" << seed << "\n" << c.sparql;
    if (c.limit < 0 && c.offset == 0) {
      // Full result: exact multiset equality.
      ASSERT_EQ(engine_rows, oracle_rows)
          << "seed=" << seed << "\n" << c.sparql;
    } else {
      // LIMIT/OFFSET may pick any rows, but only oracle rows.
      ASSERT_TRUE(IsSubMultiset(engine_rows, oracle_rows))
          << "seed=" << seed << "\n" << c.sparql;
    }
  }
}

// Regression: a FILTER inside a nested group whose variable is bound by
// only one UNION branch reaches the streaming planner through seed rows
// with heterogeneous bindings. It must be applied leniently per row
// (when the row binds the variable) — not dropped.
TEST(ExecOracleTest, FilterOnHeterogeneousSeedBindingsMatchesLegacy) {
  rdf::TripleStore store;
  store.InsertIris("n1", "p1", "n2");
  store.InsertIris("n1", "p2", "x1");
  store.InsertIris("n2", "p2", "good");
  store.InsertIris("n2", "p2", "bad");
  const std::string query =
      "SELECT * WHERE { ?s <p1> ?o . "
      "{ ?s <p2> ?x } UNION { ?o <p2> ?y } "
      "{ ?s <p1> ?o . FILTER(?y = <good>) } UNION { ?s <p3> ?z } }";

  QueryEngine engine(&store);
  auto streamed = engine.ExecuteString(query);
  ASSERT_TRUE(streamed.ok()) << streamed.status();
  // ?y=<bad> fails the filter; ?y unbound (first branch) passes it.
  EXPECT_EQ(streamed->columns,
            (std::vector<std::string>{"s", "o", "x", "y", "z"}));
  EXPECT_EQ(EngineRows(*streamed),
            (std::vector<std::vector<std::string>>{
                {"i:n1", "i:n2", "i:x1", "u:", "u:"},
                {"i:n1", "i:n2", "u:", "i:good", "u:"}}));
  EXPECT_EQ(streamed->NumRows(), 2u);
}

// 300 randomized cases total, weighted across the query shapes the
// streaming executor must get right. The random graphs and BGPs exercise
// every bound-position combination, so the planner's scans cover all six
// permutation indexes (spo/pos/osp/pso/ops/sop).
TEST(ExecOracleTest, BasicGraphPatternsMatchBruteForce) {
  RunSeeds(1000, 60, GenOptions{});
}

TEST(ExecOracleTest, FiltersMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  RunSeeds(2000, 60, opts);
}

TEST(ExecOracleTest, OptionalsMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.optionals = true;
  RunSeeds(3000, 50, opts);
}

TEST(ExecOracleTest, UnionsMatchBruteForce) {
  GenOptions opts;
  opts.unions = true;
  RunSeeds(5000, 50, opts);
}

TEST(ExecOracleTest, UnionsWithFiltersAndOptionalsMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  RunSeeds(6000, 40, opts);
}

TEST(ExecOracleTest, LimitOffsetMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  opts.modifiers = true;
  RunSeeds(4000, 40, opts);
}

// DISTINCT composed with OFFSET and LIMIT (dedup happens before the
// modifiers), over union/optional shapes whose rows carry unbound slots
// — the case where DISTINCT must not merge an unbound cell with a bound
// one.
TEST(ExecOracleTest, DistinctLimitOffsetMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  opts.modifiers = true;
  opts.distinct = true;
  RunSeeds(7000, 40, opts);
}

// Regression: unbound projection cells used to materialize as empty
// *literals*, so DISTINCT merged a row whose ?x is genuinely "" with a
// row whose ?x is unbound. With the explicit UNDEF representation the
// two rows stay distinct (and serialize distinguishably).
TEST(ExecOracleTest, DistinctKeepsUnboundApartFromEmptyLiteral) {
  rdf::TripleStore store;
  store.Insert(Term::Iri("s"), Term::Iri("p"), Term::Literal(""));
  store.InsertIris("s", "q", "o");
  const std::string query =
      "SELECT DISTINCT ?s ?x WHERE { { ?s <p> ?x } UNION { ?s <q> <o> } }";
  QueryEngine engine(&store);
  auto r = engine.ExecuteString(query);
  ASSERT_TRUE(r.ok()) << r.status();
  ASSERT_EQ(r->NumRows(), 2u) << "DISTINCT merged unbound with \"\"";
  // One row binds ?x to the empty literal, the other leaves it UNDEF.
  int undef = 0, empty_lit = 0;
  for (const auto& row : r->rows) {
    if (row[1].is_undef()) ++undef;
    if (row[1].is_literal() && row[1].lexical.empty()) ++empty_lit;
  }
  EXPECT_EQ(undef, 1);
  EXPECT_EQ(empty_lit, 1);
}

// Plain reads over the wire run without an ExecInfo; explained and
// benchmarked reads pass one. Single-pattern queries must emit the same
// rows in the same order either way, on clean and dirty stores, in both
// index sets — or the wire bytes would depend on whether anyone asked for
// a plan.
TEST(ExecOracleTest, SinglePatternFastPathMatchesPlannedTreeRowForRow) {
  for (uint64_t seed = 9300; seed < 9306; ++seed) {
    tensor::Rng rng(seed);
    rdf::TripleStore::Options sopts;
    if (seed % 2 == 1)
      sopts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
    rdf::TripleStore store(sopts);
    auto node = [&] { return "n" + std::to_string(rng.NextUint(8)); };
    auto pred = [&] { return "p" + std::to_string(rng.NextUint(3)); };
    for (int i = 0; i < 60; ++i) store.InsertIris(node(), pred(), node());
    if (seed % 3 == 0) store.Compact();
    for (int i = 0; i < 10; ++i) store.InsertIris(node(), pred(), node());

    QueryEngine engine(&store);
    const std::string shapes[] = {
        "SELECT * WHERE { ?s ?p ?o }",
        "SELECT ?o ?s WHERE { ?s <p1> ?o }",
        "SELECT ?p WHERE { <n2> ?p ?o }",
        "SELECT ?s WHERE { ?s ?p <n3> }",
        "SELECT ?p WHERE { <n1> ?p <n4> }",
        "SELECT ?o WHERE { <n5> <p0> ?o }",
        "SELECT ?s WHERE { ?s <p2> <n6> }",
        "SELECT * WHERE { <n0> <p1> <n7> }",
        "SELECT ?x WHERE { ?x <p0> ?x }",
        "SELECT DISTINCT ?s WHERE { ?s ?p ?o } LIMIT 5 OFFSET 2",
        "SELECT ?s ?o WHERE { ?s <p1> ?o } LIMIT 3",
        "ASK { ?s <p2> ?o }",
        "ASK { <n7> ?p <n7> }",
    };
    for (const std::string& text : shapes) {
      auto q = ParseQuery(text);
      ASSERT_TRUE(q.ok()) << q.status() << "\n" << text;
      const rdf::Snapshot snap = store.OpenSnapshot();
      auto fast = engine.Execute(*q, snap);
      ExecInfo info;
      auto planned = engine.Execute(*q, snap, &info);
      ASSERT_TRUE(fast.ok() && planned.ok()) << text;
      EXPECT_EQ(fast->columns, planned->columns) << text;
      EXPECT_EQ(fast->rows, planned->rows) << "seed=" << seed << "\n" << text;
      EXPECT_EQ(fast->ask_result, planned->ask_result) << text;
    }
  }
}

// The MVCC guarantee at the query layer: a query executed against a
// snapshot opened *before* a mutation batch returns exactly the
// pre-batch answer, while the same parsed query on the live store
// tracks the updated graph — both sides differentially checked against
// the brute-force reference on their respective fact sets, across
// interleaved insert/erase batches and a mid-sequence compaction.
TEST(ExecOracleTest, SnapshotQueriesSurviveInterleavedMutationBatches) {
  for (uint64_t seed = 9200; seed < 9212; ++seed) {
    tensor::Rng rng(seed);
    GenOptions opts;
    opts.filters = true;
    opts.unions = seed % 2 == 0;
    opts.optionals = seed % 3 == 0;
    Case c = GenerateCase(&rng, opts);

    rdf::TripleStore::Options sopts;
    if (seed % 2 == 1) sopts.block_size = 1 + seed % 5;
    rdf::TripleStore store(sopts);
    std::set<RTriple> live(c.facts.begin(), c.facts.end());
    for (const RTriple& f : c.facts)
      store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));

    auto parsed = ParseQuery(c.sparql);
    ASSERT_TRUE(parsed.ok()) << parsed.status() << "\n" << c.sparql;
    QueryEngine engine(&store);

    for (int round = 0; round < 3; ++round) {
      const std::vector<RTriple> frozen(live.begin(), live.end());
      rdf::Snapshot snap = store.OpenSnapshot();

      // Mutation batch: erase a handful of live facts, insert fresh
      // ones (duplicates skipped in both the store and the model).
      for (int i = 0; i < 6 && !live.empty(); ++i) {
        auto it = live.begin();
        std::advance(it, rng.NextUint(live.size()));
        const RTriple victim = *it;
        const rdf::Triple t(store.dict().Find(ToTerm(victim.s)),
                            store.dict().Find(ToTerm(victim.p)),
                            store.dict().Find(ToTerm(victim.o)));
        ASSERT_TRUE(store.Erase(t)) << "seed=" << seed;
        live.erase(it);
      }
      for (int i = 0; i < 8; ++i) {
        const RTriple f{{true, "n" + std::to_string(rng.NextUint(14))},
                        {true, "p" + std::to_string(rng.NextUint(5))},
                        {true, "n" + std::to_string(rng.NextUint(14))}};
        if (live.insert(f).second) {
          ASSERT_TRUE(store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o)));
        }
      }
      if (round == 1) store.Compact();

      // The pre-batch snapshot answers from the pre-batch graph.
      ExecInfo info;
      auto snap_result = engine.Execute(*parsed, snap, &info);
      ASSERT_TRUE(snap_result.ok())
          << snap_result.status() << "\nseed=" << seed << "\n" << c.sparql;
      EXPECT_EQ(info.snapshot_epoch, snap.epoch());
      EXPECT_EQ(info.snapshot_delta, snap.delta_size());
      const std::vector<Binding> oracle_pre =
          RefEval(c.patterns, c.filters, c.unions, c.optionals, frozen);
      ASSERT_EQ(EngineRows(*snap_result),
                RefRows(oracle_pre, snap_result->columns))
          << "pre-mutation snapshot diverged\nseed=" << seed << " round="
          << round << "\n" << c.sparql;

      // The live store answers from the updated graph.
      const std::vector<RTriple> now(live.begin(), live.end());
      auto live_result = engine.Execute(*parsed);
      ASSERT_TRUE(live_result.ok())
          << live_result.status() << "\nseed=" << seed << "\n" << c.sparql;
      const std::vector<Binding> oracle_now =
          RefEval(c.patterns, c.filters, c.unions, c.optionals, now);
      ASSERT_EQ(EngineRows(*live_result),
                RefRows(oracle_now, live_result->columns))
          << "post-mutation store diverged\nseed=" << seed << " round="
          << round << "\n" << c.sparql;
    }
  }
}

// The executor is serial, but the store's index flush (and the
// N-Triples bulk load above it) runs on the shared thread pool; every
// query result must be identical no matter how many pool threads
// rebuilt the permutation runs. Runs the seeded cases [first_seed,
// end_seed) at 1, 2 and 4 pool threads — odd seeds compacted, even ones
// answered from the delta — and compares the result rows in emission
// order, not just as multisets.
void ExpectRowsIdenticalAcrossThreadCounts(uint64_t first_seed,
                                           uint64_t end_seed,
                                           const GenOptions& opts) {
  kgnet::testing::ThreadCountGuard thread_guard;
  using OrderedTable = std::vector<std::vector<Term>>;
  auto run = [&](int threads) {
    common::ThreadPool::SetNumThreads(threads);
    std::vector<OrderedTable> tables;
    for (uint64_t seed = first_seed; seed < end_seed; ++seed) {
      tensor::Rng rng(seed);
      Case c = GenerateCase(&rng, opts);
      rdf::TripleStore store;
      for (const RTriple& f : c.facts)
        store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));
      if (seed % 2 == 1) store.Compact();
      QueryEngine engine(&store);
      auto result = engine.ExecuteString(c.sparql);
      EXPECT_TRUE(result.ok())
          << result.status() << "\nseed=" << seed << "\n" << c.sparql;
      tables.push_back(result.ok() ? result->rows : OrderedTable{});
    }
    return tables;
  };

  const std::vector<OrderedTable> want = run(1);
  for (int threads : {2, 4})
    EXPECT_TRUE(want == run(threads)) << "diverged at " << threads
                                      << " threads";
}

TEST(ExecOracleTest, ResultTablesIdenticalAcrossThreadCounts) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  ExpectRowsIdenticalAcrossThreadCounts(9000, 9012, opts);
}

// DISTINCT/LIMIT/OFFSET cases are free to pick any rows, so they expose
// any change in the row stream that a multiset comparison would miss.
TEST(ExecOracleTest, ModifierResultsIdenticalAcrossThreadCounts) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  opts.modifiers = true;
  opts.distinct = true;
  ExpectRowsIdenticalAcrossThreadCounts(9100, 9116, opts);
}

// --------------------------------------------------------- update oracle --
//
// SPARQL updates checked the same way: each seeded case builds a store
// from the case's facts, runs one INSERT DATA / INSERT {..} WHERE {..} /
// DELETE {..} WHERE {..}, and compares the post-update store triple for
// triple — plus num_inserted/num_deleted — against the brute-force
// evaluator's solutions instantiated into the template over the
// pre-update facts.

enum class UpdateKind { kInsertData, kInsertWhere, kDeleteWhere };

struct UpdateCase {
  Case where;  // the pre-update facts and the WHERE clause
  UpdateKind kind = UpdateKind::kInsertData;
  std::vector<RPattern> tmpl;  // ground for INSERT DATA
  std::string sparql;
};

void CollectVars(const std::vector<RPattern>& patterns,
                 std::set<std::string>* out) {
  for (const RPattern& p : patterns)
    for (const RNode* n : {&p.s, &p.p, &p.o})
      if (n->is_var) out->insert(n->var);
}

UpdateCase GenerateUpdateCase(tensor::Rng* rng, const GenOptions& opts,
                              UpdateKind kind) {
  UpdateCase u;
  u.kind = kind;
  u.where = GenerateCase(rng, opts);
  const Case& c = u.where;
  // Constants both hit the generated graph (n0-n13, p0-p4) and extend it
  // with fresh predicates (q0-q2).
  auto node = [&] {
    return RNode::Const(RTerm{true, "n" + std::to_string(rng->NextUint(14))});
  };
  auto pred = [&] {
    const char* prefix = rng->NextFloat() < 0.5f ? "q" : "p";
    return RNode::Const(
        RTerm{true, prefix + std::to_string(rng->NextUint(3))});
  };
  auto render = [&](const std::string& head) {
    std::string q = head + " { ";
    for (const RPattern& p : u.tmpl)
      q += NodeSparql(p.s) + " " + NodeSparql(p.p) + " " + NodeSparql(p.o) +
           " . ";
    return q + "}";
  };

  if (kind == UpdateKind::kInsertData) {
    const int n = 1 + static_cast<int>(rng->NextUint(6));
    for (int i = 0; i < n; ++i) {
      RPattern t;
      if (rng->NextFloat() < 0.4f) {
        // An existing fact: a duplicate insert the store must skip.
        const RTriple& f = c.facts[rng->NextUint(c.facts.size())];
        t = {RNode::Const(f.s), RNode::Const(f.p), RNode::Const(f.o)};
      } else {
        t.s = node();
        t.p = pred();
        t.o = rng->NextFloat() < 0.2f
                  ? RNode::Const(
                        RTerm{false, std::to_string(rng->NextUint(10))})
                  : node();
      }
      u.tmpl.push_back(std::move(t));
    }
    // A repeat inside the batch counts once.
    if (rng->NextFloat() < 0.3f)
      u.tmpl.push_back(u.tmpl[rng->NextUint(u.tmpl.size())]);
    u.sparql = render("INSERT DATA");
    return u;
  }

  // Template variables: mostly ones every WHERE solution binds; some
  // bound only by a UNION branch or OPTIONAL group, and a rare one no
  // pattern binds — both must fail the update when a solution leaves
  // them unbound.
  std::set<std::string> core;
  CollectVars(c.patterns, &core);
  std::set<std::string> partial;
  for (const auto& alternatives : c.unions) CollectVars(alternatives, &partial);
  CollectVars(c.optionals, &partial);
  for (const std::string& v : core) partial.erase(v);
  const std::vector<std::string> core_vars(core.begin(), core.end());
  const std::vector<std::string> partial_vars(partial.begin(), partial.end());
  auto var_or = [&](RNode fallback) {
    const float r = rng->NextFloat();
    if (!core_vars.empty() && r < 0.75f)
      return RNode::Var(core_vars[rng->NextUint(core_vars.size())]);
    if (!partial_vars.empty() && r < 0.85f)
      return RNode::Var(partial_vars[rng->NextUint(partial_vars.size())]);
    if (r < 0.88f) return RNode::Var("zz");
    return fallback;
  };
  const int n = 1 + static_cast<int>(rng->NextUint(2));
  for (int i = 0; i < n; ++i) {
    RPattern t;
    if (kind == UpdateKind::kDeleteWhere && rng->NextFloat() < 0.5f) {
      // A WHERE pattern's own matches: deletions that hit.
      t = c.patterns[rng->NextUint(c.patterns.size())];
    } else {
      t.s = var_or(node());
      t.p = pred();
      t.o = var_or(node());
    }
    u.tmpl.push_back(std::move(t));
  }
  u.sparql = render(kind == UpdateKind::kInsertWhere ? "INSERT" : "DELETE") +
             " WHERE " + GroupSparql(c);
  return u;
}

/// The reference outcome: the template instantiated over every
/// brute-force solution of the WHERE clause (INSERT DATA: once, over no
/// bindings), or `unbound` when some solution leaves a template variable
/// unbound.
struct RefUpdate {
  bool unbound = false;
  std::vector<RTriple> triples;
};

RefUpdate RefInstantiate(const UpdateCase& u) {
  const Case& c = u.where;
  const std::vector<Binding> sols =
      u.kind == UpdateKind::kInsertData
          ? std::vector<Binding>{Binding{}}
          : RefEval(c.patterns, c.filters, c.unions, c.optionals, c.facts);
  RefUpdate out;
  for (const Binding& sol : sols) {
    for (const RPattern& p : u.tmpl) {
      const RTerm* s = ResolveRef(p.s, sol);
      const RTerm* pr = ResolveRef(p.p, sol);
      const RTerm* o = ResolveRef(p.o, sol);
      if (s == nullptr || pr == nullptr || o == nullptr) {
        out.unbound = true;
        return out;
      }
      out.triples.push_back({*s, *pr, *o});
    }
  }
  return out;
}

/// Every visible triple of `store`, rendered and sorted.
std::vector<std::string> StoreFacts(const rdf::TripleStore& store) {
  std::vector<std::string> out;
  auto render = [&](rdf::TermId id) {
    const Term& t = store.dict().Lookup(id);
    return (t.is_iri() ? "i:" : "l:") + t.lexical;
  };
  for (const rdf::Triple& t : store.OpenSnapshot().Match(rdf::TriplePattern{}))
    out.push_back(render(t.s) + " " + render(t.p) + " " + render(t.o));
  std::sort(out.begin(), out.end());
  return out;
}

std::vector<std::string> RenderFacts(const std::set<RTriple>& facts) {
  std::vector<std::string> out;
  auto render = [](const RTerm& t) { return (t.iri ? "i:" : "l:") + t.lex; };
  for (const RTriple& f : facts)
    out.push_back(render(f.s) + " " + render(f.p) + " " + render(f.o));
  std::sort(out.begin(), out.end());
  return out;
}

/// Runs `count` seeded update cases, rotating through `kinds`, the two
/// index sets, and compacted vs delta-resident facts.
void RunUpdateSeeds(uint64_t first_seed, int count, const GenOptions& opts,
                    const std::vector<UpdateKind>& kinds) {
  for (int i = 0; i < count; ++i) {
    const uint64_t seed = first_seed + static_cast<uint64_t>(i);
    tensor::Rng rng(seed);
    const UpdateKind kind = kinds[seed % kinds.size()];
    const UpdateCase u = GenerateUpdateCase(&rng, opts, kind);
    const bool erasing = kind == UpdateKind::kDeleteWhere;

    const std::set<RTriple> before(u.where.facts.begin(),
                                   u.where.facts.end());
    const RefUpdate ref = RefInstantiate(u);
    std::set<RTriple> after = before;
    size_t applied = 0;
    for (const RTriple& t : ref.triples)
      applied += erasing ? after.erase(t) : after.insert(t).second;

    rdf::TripleStore::Options sopts;
    if (seed % 2 == 1)
      sopts.index_set = rdf::TripleStore::Options::IndexSet::kClassicTrio;
    if (seed % 5 == 2) sopts.block_size = 2;
    rdf::TripleStore store(sopts);
    for (const RTriple& f : u.where.facts)
      store.Insert(ToTerm(f.s), ToTerm(f.p), ToTerm(f.o));
    if ((seed / 2) % 2 == 0) store.Compact();

    QueryEngine engine(&store);
    auto r = engine.ExecuteString(u.sparql);
    const std::string where = "seed=" + std::to_string(seed) + "\n" + u.sparql;
    if (ref.unbound) {
      ASSERT_FALSE(r.ok()) << where;
      EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << where;
      EXPECT_NE(r.status().message().find("not bound"), std::string::npos)
          << r.status() << "\n" << where;
      ASSERT_EQ(StoreFacts(store), RenderFacts(before))
          << "a failed update changed the store\n" << where;
      continue;
    }
    ASSERT_TRUE(r.ok()) << r.status() << "\n" << where;
    EXPECT_EQ(erasing ? r->num_deleted : r->num_inserted, applied) << where;
    EXPECT_EQ(erasing ? r->num_inserted : r->num_deleted, 0u) << where;
    ASSERT_EQ(StoreFacts(store), RenderFacts(after)) << where;
  }
}

TEST(ExecOracleTest, InsertDataMatchesBruteForce) {
  RunUpdateSeeds(10000, 40, GenOptions{}, {UpdateKind::kInsertData});
}

TEST(ExecOracleTest, UpdatesOverBasicGraphPatternsMatchBruteForce) {
  RunUpdateSeeds(11000, 60, GenOptions{},
                 {UpdateKind::kInsertWhere, UpdateKind::kDeleteWhere});
}

TEST(ExecOracleTest, UpdatesWithFiltersMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  RunUpdateSeeds(12000, 60, opts,
                 {UpdateKind::kInsertWhere, UpdateKind::kDeleteWhere});
}

TEST(ExecOracleTest, UpdatesOverUnionsMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  RunUpdateSeeds(13000, 50, opts,
                 {UpdateKind::kInsertWhere, UpdateKind::kDeleteWhere});
}

TEST(ExecOracleTest, UpdatesOverOptionalsMatchBruteForce) {
  GenOptions opts;
  opts.filters = true;
  opts.unions = true;
  opts.optionals = true;
  RunUpdateSeeds(14000, 50, opts,
                 {UpdateKind::kInsertWhere, UpdateKind::kDeleteWhere});
}

// The unbound-template error, pinned by hand: a variable no pattern
// binds, one an OPTIONAL binds in only some rows, and the no-solution
// case, which applies nothing and is not an error.
TEST(ExecOracleTest, UnboundTemplateVariableFailsTheWholeUpdate) {
  rdf::TripleStore store;
  store.InsertIris("n1", "p", "n2");
  store.InsertIris("n2", "p", "n3");
  store.InsertIris("n2", "q", "n4");
  const std::vector<std::string> pristine = StoreFacts(store);
  QueryEngine engine(&store);
  for (const char* text : {
           "INSERT { ?s <r> ?zz } WHERE { ?s <p> ?o }",
           "INSERT { ?s <r> ?x } WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x } }",
           "DELETE { ?s <p> ?x } WHERE { ?s <p> ?o OPTIONAL { ?s <q> ?x } }",
       }) {
    auto r = engine.ExecuteString(text);
    ASSERT_FALSE(r.ok()) << text;
    EXPECT_EQ(r.status().code(), StatusCode::kInvalidArgument) << text;
    EXPECT_EQ(r.status().message(),
              "update template variable not bound by WHERE clause")
        << text;
    EXPECT_EQ(StoreFacts(store), pristine) << text;
  }
  auto none =
      engine.ExecuteString("INSERT { ?s <r> ?zz } WHERE { ?s <nope> ?o }");
  ASSERT_TRUE(none.ok()) << none.status();
  EXPECT_EQ(none->num_inserted, 0u);
  EXPECT_EQ(StoreFacts(store), pristine);
}

}  // namespace
}  // namespace kgnet::sparql
