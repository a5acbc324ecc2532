#include "sparql/engine.h"

#include <algorithm>
#include <set>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "sparql/exec.h"
#include "sparql/parser.h"
#include "sparql/plan.h"

namespace kgnet::sparql {

namespace {

using rdf::kNullTermId;
using rdf::Term;
using rdf::TermId;
using rdf::Triple;
using rdf::TriplePattern;

/// Legacy evaluator: the BGP of `gp` (with eager FILTER application)
/// starting from `seeds`, by greedy indexed nested-loop joins with fully
/// materialized intermediates. Kept verbatim as the reference
/// implementation behind ExecMode::kMaterialized.
Status EvalPatternsLegacy(const GraphPattern& gp, EvalContext* ctx,
                          std::vector<Solution> seeds,
                          std::vector<Solution>* out) {
  std::vector<CompiledPattern> patterns;
  patterns.reserve(gp.triples.size());
  for (const auto& pt : gp.triples)
    patterns.push_back(CompilePattern(pt, ctx));

  // Pre-resolve filter variable slots.
  struct CompiledFilter {
    ExprPtr expr;
    std::vector<int> slots;
    bool applied = false;
  };
  std::vector<CompiledFilter> filters;
  for (const auto& f : gp.filters) {
    CompiledFilter cf;
    cf.expr = f;
    std::set<std::string> names;
    CollectExprVars(f, &names);
    for (const auto& n : names) cf.slots.push_back(ctx->vars.SlotOf(n));
    filters.push_back(std::move(cf));
  }

  // Resize seed solutions to the full variable count.
  const size_t nvars = ctx->vars.size();
  for (auto& s : seeds) s.resize(nvars, kNullTermId);

  std::vector<bool> used(patterns.size(), false);

  // Recursive greedy join.
  struct Rec {
    EvalContext* ctx;
    const std::vector<CompiledPattern>& patterns;
    std::vector<CompiledFilter>& filters;
    std::vector<bool>& used;
    std::vector<Solution>* out;
    Status status = Status::OK();

    bool FiltersPass(Solution& sol, std::vector<bool>& applied) {
      for (size_t i = 0; i < filters.size(); ++i) {
        if (applied[i]) continue;
        bool ready = true;
        for (int slot : filters[i].slots) {
          if (sol[slot] == kNullTermId) {
            ready = false;
            break;
          }
        }
        if (!ready) continue;
        auto v = EvalExpr(filters[i].expr, ctx, sol);
        if (!v.ok()) {
          status = v.status();
          return false;
        }
        applied[i] = true;
        if (!EffectiveBool(*v)) return false;
      }
      return true;
    }

    void Run(Solution& sol, std::vector<bool>& applied, size_t remaining) {
      if (!status.ok()) return;
      if (remaining == 0) {
        out->push_back(sol);
        return;
      }
      // Pick the cheapest unused pattern under the current bindings.
      int best = -1;
      size_t best_card = SIZE_MAX;
      for (size_t i = 0; i < patterns.size(); ++i) {
        if (used[i]) continue;
        TriplePattern bound = BindPattern(patterns[i], sol);
        size_t card = ctx->snapshot.EstimateCardinality(bound);
        if (card < best_card) {
          best_card = card;
          best = static_cast<int>(i);
        }
      }
      const CompiledPattern& cp = patterns[best];
      used[best] = true;
      TriplePattern bound = BindPattern(cp, sol);
      ctx->snapshot.Scan(bound, [&](const Triple& t) {
        // Cancellation poll: the legacy evaluator's only long-running
        // loop is this scan callback.
        Status cs = ctx->cancel.Check();
        if (!cs.ok()) {
          status = std::move(cs);
          return false;
        }
        // Bind free positions; check join consistency for repeated vars.
        TermId olds = cp.s_slot >= 0 ? sol[cp.s_slot] : kNullTermId;
        TermId oldp = cp.p_slot >= 0 ? sol[cp.p_slot] : kNullTermId;
        TermId oldo = cp.o_slot >= 0 ? sol[cp.o_slot] : kNullTermId;
        if (cp.s_slot >= 0) sol[cp.s_slot] = t.s;
        if (cp.p_slot >= 0) sol[cp.p_slot] = t.p;
        if (cp.o_slot >= 0) sol[cp.o_slot] = t.o;
        // Repeated-variable consistency (e.g. ?x <cites> ?x): after all
        // assignments, every position must still see its own value.
        bool consistent = (cp.s_slot < 0 || sol[cp.s_slot] == t.s) &&
                          (cp.p_slot < 0 || sol[cp.p_slot] == t.p) &&
                          (cp.o_slot < 0 || sol[cp.o_slot] == t.o);
        if (consistent) {
          std::vector<bool> applied_copy = applied;
          if (FiltersPass(sol, applied_copy)) {
            Run(sol, applied_copy, remaining - 1);
          }
        }
        if (cp.s_slot >= 0) sol[cp.s_slot] = olds;
        if (cp.p_slot >= 0) sol[cp.p_slot] = oldp;
        if (cp.o_slot >= 0) sol[cp.o_slot] = oldo;
        return status.ok();
      });
      used[best] = false;
    }
  };

  Rec rec{ctx, patterns, filters, used, out};
  for (auto& seed : seeds) {
    std::vector<bool> applied(filters.size(), false);
    if (patterns.empty()) {
      // Filters may still apply to seed bindings.
      std::vector<bool> ac = applied;
      if (rec.FiltersPass(seed, ac)) out->push_back(seed);
    } else {
      rec.Run(seed, applied, patterns.size());
    }
    if (!rec.status.ok()) return rec.status;
  }
  return Status::OK();
}

/// Streaming evaluator: plans the BGP with the cost-based planner and
/// drains the operator tree into `out`. Nobody renders this plan, so the
/// description tree is skipped.
Status EvalPatternsStreaming(const GraphPattern& gp, EvalContext* ctx,
                             const std::vector<Solution>& seeds,
                             std::vector<Solution>* out, ExecStats* stats) {
  Plan plan =
      PlanBasicGraphPattern(gp, ctx, &seeds, stats, /*build_desc=*/false);
  plan.exec->Open(Solution(plan.width, kNullTermId));
  Solution row(plan.width, kNullTermId);
  while (plan.exec->Next(&row)) out->push_back(row);
  return plan.exec->status();
}

Status EvalPatterns(const GraphPattern& gp, EvalContext* ctx,
                    std::vector<Solution> seeds, std::vector<Solution>* out,
                    bool streaming, ExecStats* stats) {
  if (streaming) return EvalPatternsStreaming(gp, ctx, seeds, out, stats);
  return EvalPatternsLegacy(gp, ctx, std::move(seeds), out);
}

/// Evaluates a full group pattern: BGP + filters, then UNION chains, then
/// OPTIONAL left-joins. Returns the solution set (each padded to the
/// current variable-table size).
Status EvalGroup(const GraphPattern& gp, EvalContext* ctx,
                 std::vector<Solution> seeds, std::vector<Solution>* out,
                 bool streaming, ExecStats* stats) {
  std::vector<Solution> sols;
  KGNET_RETURN_IF_ERROR(
      EvalPatterns(gp, ctx, std::move(seeds), &sols, streaming, stats));

  // UNION chains: each group multiplies the solution set by its matching
  // alternatives.
  for (const auto& alternatives : gp.unions) {
    std::vector<Solution> merged;
    for (const GraphPattern& alt : alternatives) {
      std::vector<Solution> branch;
      KGNET_RETURN_IF_ERROR(
          EvalGroup(alt, ctx, sols, &branch, streaming, stats));
      merged.insert(merged.end(), branch.begin(), branch.end());
    }
    sols = std::move(merged);
  }

  // OPTIONAL groups: left join — keep the original solution when the
  // optional pattern has no match.
  for (const GraphPattern& opt : gp.optionals) {
    std::vector<Solution> joined;
    for (auto& sol : sols) {
      std::vector<Solution> ext;
      KGNET_RETURN_IF_ERROR(
          EvalGroup(opt, ctx, {sol}, &ext, streaming, stats));
      if (ext.empty()) {
        joined.push_back(std::move(sol));
      } else {
        joined.insert(joined.end(), ext.begin(), ext.end());
      }
    }
    sols = std::move(joined);
  }

  // Nested evaluation may have grown the variable table.
  const size_t nvars = ctx->vars.size();
  for (auto& s : sols) s.resize(nvars, kNullTermId);
  out->insert(out->end(), sols.begin(), sols.end());
  return Status::OK();
}

/// Binds the free positions of `cp` from `t` into `sol`; false when a
/// repeated variable (e.g. ?x <p> ?x) sees two different ids.
bool BindTripleIntoSolution(const CompiledPattern& cp, const Triple& t,
                            Solution* sol) {
  if (cp.s_slot >= 0) (*sol)[cp.s_slot] = t.s;
  if (cp.p_slot >= 0) (*sol)[cp.p_slot] = t.p;
  if (cp.o_slot >= 0) (*sol)[cp.o_slot] = t.o;
  return (cp.s_slot < 0 || (*sol)[cp.s_slot] == t.s) &&
         (cp.p_slot < 0 || (*sol)[cp.p_slot] == t.p) &&
         (cp.o_slot < 0 || (*sol)[cp.o_slot] == t.o);
}

std::string RowKey(const std::vector<Term>& row) {
  std::string key;
  for (const Term& t : row) {
    key += t.EncodeKey();
    key += '\x02';
  }
  return key;
}

/// The effective projection list: explicit SELECT items, or one bare-var
/// item per registered variable for SELECT *.
std::vector<SelectItem> ProjectionItems(const Query& query,
                                        const EvalContext& ctx) {
  std::vector<SelectItem> items = query.select;
  if (query.select_all) {
    for (size_t i = 0; i < ctx.vars.size(); ++i) {
      SelectItem it;
      it.expr = Expr::Var(ctx.vars.name(static_cast<int>(i)));
      it.alias = ctx.vars.name(static_cast<int>(i));
      items.push_back(std::move(it));
    }
  }
  return items;
}

/// Evaluates one projected row; unbound variables become explicit
/// Term::Undef() cells — never an empty literal, which a row could
/// genuinely bind (DISTINCT and serialization must tell them apart).
Result<std::vector<Term>> ProjectRow(const std::vector<SelectItem>& items,
                                     EvalContext* ctx, const Solution& sol) {
  std::vector<Term> row;
  row.reserve(items.size());
  for (const auto& it : items) {
    auto v = EvalExpr(it.expr, ctx, sol);
    if (!v.ok()) {
      if (v.status().code() == StatusCode::kFailedPrecondition) {
        // Unbound variable in projection: explicit unbound cell.
        row.push_back(Term::Undef());
        continue;
      }
      return v.status();
    }
    row.push_back(std::move(*v));
  }
  return row;
}

/// Drains `next` (one full-width solution per call) into `result`,
/// applying the query's projection, then DISTINCT, then OFFSET, then
/// LIMIT — in that order. Shared by the operator-tree streaming path and
/// the single-pattern fast path below, so the two row pipelines cannot
/// drift apart semantically.
Status DrainSelectRows(const Query& query, EvalContext* ctx,
                       const std::vector<SelectItem>& items,
                       const std::function<bool(Solution*)>& next,
                       Solution* sol, QueryResult* result) {
  std::unordered_set<std::string> seen;
  size_t skipped = 0;
  while ((query.limit < 0 ||
          result->rows.size() < static_cast<size_t>(query.limit)) &&
         next(sol)) {
    // Cancellation poll per drained row: covers the single-pattern fast
    // path (whose cursor loop has no operator underneath) and catches a
    // trip between operator pulls on the streaming path.
    KGNET_RETURN_IF_ERROR(ctx->cancel.Check());
    auto row = ProjectRow(items, ctx, *sol);
    if (!row.ok()) return row.status();
    if (query.distinct && !seen.insert(RowKey(*row)).second) continue;
    if (static_cast<int64_t>(skipped) < query.offset) {
      ++skipped;
      continue;
    }
    result->rows.push_back(std::move(*row));
  }
  return Status::OK();
}

/// Single-pattern fast path: a streaming SELECT/ASK whose WHERE clause
/// is one triple pattern — fully or near bound in practice — and no
/// FILTER/UNION/OPTIONAL/sub-SELECT needs no operator tree: the answer
/// is exactly one index range. For such queries the planner's work
/// (per-index range probes, operator and description allocation) costs
/// more than the scan itself — BENCH_queryopt's `selective` shape lost
/// to the legacy evaluator on planning overhead alone — so Execute()
/// answers them straight from a TripleStore cursor. Semantics are
/// identical to the operator tree: repeated-variable consistency,
/// DISTINCT-before-OFFSET, LIMIT, and projection all mirror the
/// streaming path (the differential oracle suite covers this path for
/// every single-pattern case it generates).
Result<QueryResult> ExecuteSinglePattern(const Query& query,
                                         EvalContext* ctx) {
  const CompiledPattern cp = CompilePattern(query.where.triples[0], ctx);
  const size_t width = ctx->vars.size();
  Solution sol(width, kNullTermId);
  const TriplePattern consts = BindPattern(cp, sol);
  const rdf::Snapshot& snapshot = ctx->snapshot;
  rdf::TripleCursor cursor =
      snapshot.OpenCursor(snapshot.ChooseIndex(consts), consts);

  // One matching, consistently-bound solution per call.
  auto next = [&](Solution* s) {
    Triple t;
    while (cursor.Next(&t)) {
      std::fill(s->begin(), s->end(), kNullTermId);
      if (BindTripleIntoSolution(cp, t, s)) return true;
    }
    return false;
  };

  QueryResult result;
  if (query.kind == QueryKind::kAsk) {
    result.ask_result = next(&sol);
    return result;
  }

  std::vector<SelectItem> items = ProjectionItems(query, *ctx);
  for (const auto& it : items) result.columns.push_back(it.alias);
  KGNET_RETURN_IF_ERROR(
      DrainSelectRows(query, ctx, items, next, &sol, &result));
  return result;
}

/// Wraps the WHERE-clause plan in Project/Limit nodes and renders it.
std::string DescribePlan(std::unique_ptr<PlanNode> desc, const Query& query) {
  std::unique_ptr<PlanNode> root = std::move(desc);
  if (query.kind == QueryKind::kSelect) {
    std::string cols;
    if (query.distinct) cols = "distinct ";
    if (query.select_all) {
      cols += "*";
    } else {
      for (size_t i = 0; i < query.select.size(); ++i) {
        if (i > 0) cols += ' ';
        cols += '?';
        cols += query.select[i].alias;
      }
    }
    root = MakePlanNode(PlanNode::Kind::kProject, "Project(" + cols + ")",
                        std::move(root));
    if (query.limit >= 0 || query.offset > 0) {
      std::string label = "Limit(";
      label += query.limit >= 0 ? std::to_string(query.limit) : "all";
      if (query.offset > 0)
        label += " offset=" + std::to_string(query.offset);
      label += ")";
      root = MakePlanNode(PlanNode::Kind::kLimit, std::move(label),
                          std::move(root));
    }
  }
  return RenderPlanTree(*root);
}

}  // namespace

int QueryResult::ColumnIndex(std::string_view name) const {
  for (size_t i = 0; i < columns.size(); ++i)
    if (columns[i] == name) return static_cast<int>(i);
  return -1;
}

std::string QueryResult::ToTable() const {
  std::vector<size_t> width(columns.size());
  std::vector<std::vector<std::string>> cells;
  for (size_t i = 0; i < columns.size(); ++i) width[i] = columns[i].size();
  for (const auto& row : rows) {
    std::vector<std::string> line;
    // A hand-built result may carry rows wider than `columns`; clamp so
    // the width bookkeeping never indexes past the column count.
    const size_t ncells = std::min(row.size(), columns.size());
    for (size_t i = 0; i < ncells; ++i) {
      line.push_back(row[i].ToNTriples());
      width[i] = std::max(width[i], line.back().size());
    }
    cells.push_back(std::move(line));
  }
  std::ostringstream os;
  for (size_t i = 0; i < columns.size(); ++i) {
    os << (i ? " | " : "");
    os << columns[i] << std::string(width[i] - columns[i].size(), ' ');
  }
  os << "\n";
  for (const auto& line : cells) {
    for (size_t i = 0; i < line.size(); ++i) {
      os << (i ? " | " : "");
      os << line[i] << std::string(width[i] - line[i].size(), ' ');
    }
    os << "\n";
  }
  return os.str();
}

Result<QueryResult> QueryEngine::ExecuteString(std::string_view text) {
  KGNET_ASSIGN_OR_RETURN(Query q, ParseQuery(text));
  return Execute(q);
}

size_t QueryEngine::EstimateWhereCardinality(const Query& query) const {
  // Product of the per-pattern estimates with all variables free; an upper
  // bound that is cheap to compute.
  size_t est = 1;
  for (const auto& pt : query.where.triples) {
    TriplePattern p;
    // A constant that was never interned cannot match anything.
    if (!pt.s.is_var) {
      p.s = store_->dict().Find(pt.s.term);
      if (p.s == kNullTermId) return 0;
    }
    if (!pt.p.is_var) {
      p.p = store_->dict().Find(pt.p.term);
      if (p.p == kNullTermId) return 0;
    }
    if (!pt.o.is_var) {
      p.o = store_->dict().Find(pt.o.term);
      if (p.o == kNullTermId) return 0;
    }
    size_t card = store_->EstimateCardinality(p);
    if (card == 0) return 0;
    // Saturating multiply.
    if (est > SIZE_MAX / card) return SIZE_MAX;
    est *= card;
  }
  return est;
}

Result<std::string> QueryEngine::Explain(const Query& query) {
  EvalContext ctx;
  ctx.store = store_;
  ctx.snapshot = store_->OpenSnapshot();
  ctx.udfs = &udfs_;
  // Pre-register variables in the same order Execute() would, so the plan
  // shows the slots a real execution uses. Sub-SELECT columns come first.
  for (const auto& sub : query.where.subselects)
    for (const auto& it : ProjectionItems(*sub, ctx)) ctx.vars.SlotOf(it.alias);
  for (const auto& pt : query.where.triples) {
    if (pt.s.is_var) ctx.vars.SlotOf(pt.s.var);
    if (pt.p.is_var) ctx.vars.SlotOf(pt.p.var);
    if (pt.o.is_var) ctx.vars.SlotOf(pt.o.var);
  }
  ExecStats stats;
  Plan plan = PlanGroupPattern(query.where, &ctx, nullptr, &stats);
  std::string out = DescribePlan(std::move(plan.desc), query);
  if (!query.where.subselects.empty())
    out += "(+ " + std::to_string(query.where.subselects.size()) +
           " sub-SELECT seed(s))\n";
  out += "Snapshot(epoch=" + std::to_string(ctx.snapshot.epoch()) +
         " delta=" + std::to_string(ctx.snapshot.delta_size()) + ")\n";
  return out;
}

Result<std::string> QueryEngine::ExplainString(std::string_view text) {
  KGNET_ASSIGN_OR_RETURN(Query q, ParseQuery(text));
  return Explain(q);
}

Result<QueryResult> QueryEngine::Execute(const Query& query, ExecInfo* info) {
  return Execute(query, store_->OpenSnapshot(), info);
}

Result<QueryResult> QueryEngine::Execute(const Query& query,
                                         const rdf::Snapshot& snapshot,
                                         ExecInfo* info,
                                         common::CancelToken cancel) {
  EvalContext ctx;
  ctx.store = store_;
  ctx.snapshot = snapshot;
  ctx.udfs = &udfs_;
  ctx.cancel = std::move(cancel);
  if (info != nullptr) {
    info->snapshot_epoch = snapshot.epoch();
    info->snapshot_delta = snapshot.delta_size();
  }
  ExecStats stats;
  const bool streaming = mode_ == ExecMode::kStreaming;

  // 0. Single-pattern fast path (see ExecuteSinglePattern). Skipped when
  // the caller asked for an ExecInfo so plan introspection and the
  // rows_scanned counter still reflect the full operator tree.
  if (streaming && info == nullptr &&
      (query.kind == QueryKind::kSelect || query.kind == QueryKind::kAsk) &&
      query.where.triples.size() == 1 && query.where.subselects.empty() &&
      query.where.filters.empty() && query.where.unions.empty() &&
      query.where.optionals.empty()) {
    return ExecuteSinglePattern(query, &ctx);
  }

  // 1. Evaluate sub-SELECTs; seed the outer BGP with their solutions.
  std::vector<Solution> seeds;
  seeds.emplace_back();  // one empty solution
  for (const auto& sub : query.where.subselects) {
    ExecInfo sub_info;
    // Sub-SELECTs read through the same snapshot, so the whole query —
    // outer BGP and seeds alike — observes one storage epoch.
    KGNET_ASSIGN_OR_RETURN(QueryResult sub_result,
                           Execute(*sub, ctx.snapshot, &sub_info, ctx.cancel));
    stats.rows_scanned += sub_info.rows_scanned;
    // Register subselect output columns as variables.
    std::vector<int> slots;
    for (const auto& col : sub_result.columns)
      slots.push_back(ctx.vars.SlotOf(col));
    std::vector<Solution> joined;
    for (const auto& seed : seeds) {
      for (const auto& row : sub_result.rows) {
        Solution s = seed;
        s.resize(ctx.vars.size(), kNullTermId);
        bool consistent = true;
        for (size_t i = 0; i < slots.size(); ++i) {
          // A cell the sub-SELECT left unbound seeds nothing: the outer
          // slot stays free instead of being interned as a bogus term.
          if (row[i].is_undef()) continue;
          TermId id = store_->dict().Intern(row[i]);
          if (s[slots[i]] != kNullTermId && s[slots[i]] != id) {
            consistent = false;
            break;
          }
          s[slots[i]] = id;
        }
        if (consistent) joined.push_back(std::move(s));
      }
    }
    seeds = std::move(joined);
  }

  // Pre-register variables from triples so solution vectors are sized.
  for (const auto& pt : query.where.triples) {
    if (pt.s.is_var) ctx.vars.SlotOf(pt.s.var);
    if (pt.p.is_var) ctx.vars.SlotOf(pt.p.var);
    if (pt.o.is_var) ctx.vars.SlotOf(pt.o.var);
  }

  // 2a. Streaming fast path: SELECT/ASK pulls rows out of the operator
  // tree one at a time — UNION and OPTIONAL groups included, via the
  // streaming UnionAll/LeftOuterJoin operators — so LIMIT (and ASK's
  // first hit) stop the underlying scans early instead of materializing
  // everything.
  if (streaming &&
      (query.kind == QueryKind::kSelect || query.kind == QueryKind::kAsk)) {
    // The description tree is only built when the caller wants it.
    Plan plan = PlanGroupPattern(query.where, &ctx, &seeds, &stats,
                                 /*build_desc=*/info != nullptr);
    if (info != nullptr) {
      // DescribePlan consumes the description tree; render it up front.
      info->plan = DescribePlan(std::move(plan.desc), query);
    }
    QueryResult result;
    plan.exec->Open(Solution(plan.width, kNullTermId));
    Solution sol(plan.width, kNullTermId);

    if (query.kind == QueryKind::kAsk) {
      result.ask_result = plan.exec->Next(&sol);
      KGNET_RETURN_IF_ERROR(plan.exec->status());
      if (info != nullptr) {
        info->rows_scanned = stats.rows_scanned;
        info->cancel_checks = ctx.cancel.checks();
      }
      return result;
    }

    std::vector<SelectItem> items = ProjectionItems(query, ctx);
    for (const auto& it : items) result.columns.push_back(it.alias);
    KGNET_RETURN_IF_ERROR(DrainSelectRows(
        query, &ctx, items, [&](Solution* s) { return plan.exec->Next(s); },
        &sol, &result));
    KGNET_RETURN_IF_ERROR(plan.exec->status());
    if (info != nullptr) {
      info->rows_scanned = stats.rows_scanned;
      info->cancel_checks = ctx.cancel.checks();
    }
    return result;
  }

  // 2b. Materialized path: updates (which need the full solution set
  // before mutating the store) or the legacy executor. Each inner BGP
  // still streams when in streaming mode.
  std::vector<Solution> solutions;
  KGNET_RETURN_IF_ERROR(EvalGroup(query.where, &ctx, std::move(seeds),
                                  &solutions, streaming, &stats));
  for (auto& s : solutions) s.resize(ctx.vars.size(), kNullTermId);
  if (info != nullptr) {
    info->rows_scanned = stats.rows_scanned;
    info->cancel_checks = ctx.cancel.checks();
  }

  QueryResult result;

  switch (query.kind) {
    case QueryKind::kAsk: {
      result.ask_result = !solutions.empty();
      return result;
    }
    case QueryKind::kInsertData: {
      rdf::Dictionary& dict = store_->dict();
      std::vector<Triple> batch;
      batch.reserve(query.update_template.size());
      for (const auto& pt : query.update_template) {
        if (pt.s.is_var || pt.p.is_var || pt.o.is_var)
          return Status::InvalidArgument(
              "INSERT DATA requires ground triples");
        batch.emplace_back(dict.Intern(pt.s.term), dict.Intern(pt.p.term),
                           dict.Intern(pt.o.term));
      }
      // One atomic publish: readers see all of the request or none of it.
      result.num_inserted =
          store_->Apply(rdf::TripleStore::Mutation::kInsert, batch);
      return result;
    }
    case QueryKind::kInsertWhere:
    case QueryKind::kDeleteWhere: {
      const bool inserting = query.kind == QueryKind::kInsertWhere;
      std::vector<Triple> batch;
      for (const auto& sol : solutions) {
        for (const auto& pt : query.update_template) {
          auto resolve = [&](const NodeRef& n) -> TermId {
            if (!n.is_var) return store_->dict().Intern(n.term);
            int slot = ctx.vars.Find(n.var);
            return slot < 0 ? kNullTermId : sol[slot];
          };
          Triple t(resolve(pt.s), resolve(pt.p), resolve(pt.o));
          if (t.s == kNullTermId || t.p == kNullTermId || t.o == kNullTermId)
            return Status::InvalidArgument(
                "update template variable not bound by WHERE clause");
          batch.push_back(t);
        }
      }
      const size_t applied = store_->Apply(
          inserting ? rdf::TripleStore::Mutation::kInsert
                    : rdf::TripleStore::Mutation::kErase,
          batch);
      (inserting ? result.num_inserted : result.num_deleted) = applied;
      return result;
    }
    case QueryKind::kSelect:
      break;
  }

  // 3. Projection.
  std::vector<SelectItem> items = ProjectionItems(query, ctx);
  for (const auto& it : items) result.columns.push_back(it.alias);

  std::unordered_set<std::string> seen;
  for (const auto& sol : solutions) {
    KGNET_ASSIGN_OR_RETURN(std::vector<Term> row,
                           ProjectRow(items, &ctx, sol));
    if (query.distinct) {
      std::string key = RowKey(row);
      if (!seen.insert(key).second) continue;
    }
    result.rows.push_back(std::move(row));
  }

  // 4. OFFSET / LIMIT.
  if (query.offset > 0) {
    size_t off = std::min<size_t>(query.offset, result.rows.size());
    result.rows.erase(result.rows.begin(), result.rows.begin() + off);
  }
  if (query.limit >= 0 &&
      result.rows.size() > static_cast<size_t>(query.limit)) {
    result.rows.resize(query.limit);
  }
  return result;
}

}  // namespace kgnet::sparql
