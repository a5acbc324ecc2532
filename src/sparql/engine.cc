#include "sparql/engine.h"

#include <algorithm>
#include <sstream>
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

/// Drains a SELECT plan into `result`: projection, then DISTINCT, then
/// OFFSET, then LIMIT — in that order. LIMIT stops pulling rows, so the
/// scans underneath stop early.
Status DrainSelectRows(const Query& query, EvalContext* ctx, Operator* exec,
                       Solution* sol, QueryResult* result) {
  const std::vector<SelectItem> items = ProjectionItems(query, *ctx);
  for (const auto& it : items) result->columns.push_back(it.alias);
  std::unordered_set<std::string> seen;
  size_t skipped = 0;
  while ((query.limit < 0 ||
          result->rows.size() < static_cast<size_t>(query.limit)) &&
         exec->Next(sol)) {
    // Cancellation poll per drained row: catches a trip between
    // operator pulls.
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
  return exec->status();
}

/// One position of an update template: a constant's id, or the slot of a
/// variable (-1 when the WHERE clause never mentions it).
struct TemplateNode {
  TermId id = kNullTermId;
  int slot = -1;
};

/// Drains an INSERT/DELETE WHERE plan into one mutation batch: the update
/// template instantiated once per solution. Template constants are
/// interned at the first solution, so an update matching nothing adds no
/// dictionary terms.
Status DrainUpdateBatch(const Query& query, EvalContext* ctx, Operator* exec,
                        Solution* sol, std::vector<Triple>* batch) {
  std::vector<TemplateNode> nodes;
  while (exec->Next(sol)) {
    KGNET_RETURN_IF_ERROR(ctx->cancel.Check());
    if (nodes.empty()) {
      for (const auto& pt : query.update_template) {
        for (const NodeRef* n : {&pt.s, &pt.p, &pt.o}) {
          TemplateNode node;
          if (n->is_var)
            node.slot = ctx->vars.Find(n->var);
          else
            node.id = ctx->store->dict().Intern(n->term);
          nodes.push_back(node);
        }
      }
    }
    for (size_t i = 0; i < nodes.size(); i += 3) {
      TermId ids[3];
      for (size_t k = 0; k < 3; ++k) {
        const TemplateNode& n = nodes[i + k];
        ids[k] = n.slot >= 0 ? (*sol)[n.slot] : n.id;
        if (ids[k] == kNullTermId)
          return Status::InvalidArgument(
              "update template variable not bound by WHERE clause");
      }
      batch->emplace_back(ids[0], ids[1], ids[2]);
    }
  }
  return exec->status();
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

/// INSERT DATA reads nothing: its ground triples go straight into one
/// atomic publish, so readers see all of the request or none of it.
Status InsertData(const Query& query, rdf::TripleStore* store,
                  QueryResult* result) {
  rdf::Dictionary& dict = store->dict();
  std::vector<Triple> batch;
  batch.reserve(query.update_template.size());
  for (const auto& pt : query.update_template) {
    if (pt.s.is_var || pt.p.is_var || pt.o.is_var)
      return Status::InvalidArgument("INSERT DATA requires ground triples");
    batch.emplace_back(dict.Intern(pt.s.term), dict.Intern(pt.p.term),
                       dict.Intern(pt.o.term));
  }
  result->num_inserted = store->Apply(rdf::TripleStore::Mutation::kInsert,
                                      batch);
  return Status::OK();
}

Status RunQuery(const Query& query, EvalContext* ctx, ExecStats* stats,
                std::string* plan_text, QueryResult* result);

/// Evaluates the top-level sub-SELECTs of `query` and joins their rows
/// into the seeds of the outer WHERE clause (one all-unbound seed when
/// there are none). Sub-SELECTs read through the same snapshot and
/// cancel token — so the whole query observes one storage epoch — and
/// count their scans into `stats`.
Status SubselectSeeds(const Query& query, EvalContext* ctx, ExecStats* stats,
                      std::vector<Solution>* seeds) {
  seeds->assign(1, Solution());
  for (const auto& sub : query.where.subselects) {
    EvalContext sub_ctx;
    sub_ctx.store = ctx->store;
    sub_ctx.snapshot = ctx->snapshot;
    sub_ctx.udfs = ctx->udfs;
    sub_ctx.cancel = ctx->cancel;
    QueryResult sub_result;
    KGNET_RETURN_IF_ERROR(
        RunQuery(*sub, &sub_ctx, stats, /*plan_text=*/nullptr, &sub_result));
    // Register subselect output columns as variables.
    std::vector<int> slots;
    for (const auto& col : sub_result.columns)
      slots.push_back(ctx->vars.SlotOf(col));
    std::vector<Solution> joined;
    for (const auto& seed : *seeds) {
      for (const auto& row : sub_result.rows) {
        Solution s = seed;
        s.resize(ctx->vars.size(), kNullTermId);
        bool consistent = true;
        for (size_t i = 0; i < slots.size(); ++i) {
          // A cell the sub-SELECT left unbound seeds nothing: the outer
          // slot stays free instead of being interned as a bogus term.
          if (row[i].is_undef()) continue;
          TermId id = ctx->store->dict().Intern(row[i]);
          if (s[slots[i]] != kNullTermId && s[slots[i]] != id) {
            consistent = false;
            break;
          }
          s[slots[i]] = id;
        }
        if (consistent) joined.push_back(std::move(s));
      }
    }
    *seeds = std::move(joined);
  }
  return Status::OK();
}

/// The one evaluation pipeline: sub-SELECT seeds, then the planned
/// operator tree of the WHERE clause, drained by query kind — ASK takes
/// the first row, SELECT projects rows, INSERT/DELETE WHERE collect one
/// mutation batch. `plan_text`, when non-null, receives the rendered
/// plan; otherwise no description tree is built.
Status RunQuery(const Query& query, EvalContext* ctx, ExecStats* stats,
                std::string* plan_text, QueryResult* result) {
  if (query.kind == QueryKind::kInsertData)
    return InsertData(query, ctx->store, result);

  std::vector<Solution> seeds;
  KGNET_RETURN_IF_ERROR(SubselectSeeds(query, ctx, stats, &seeds));
  Plan plan = PlanGroupPattern(query.where, ctx, &seeds, stats,
                               /*build_desc=*/plan_text != nullptr);
  if (plan_text != nullptr)
    *plan_text = DescribePlan(std::move(plan.desc), query);
  plan.exec->Open(Solution(plan.width, kNullTermId));
  Solution sol(plan.width, kNullTermId);

  switch (query.kind) {
    case QueryKind::kAsk:
      result->ask_result = plan.exec->Next(&sol);
      return plan.exec->status();
    case QueryKind::kSelect:
      return DrainSelectRows(query, ctx, plan.exec.get(), &sol, result);
    case QueryKind::kInsertWhere:
    case QueryKind::kDeleteWhere: {
      std::vector<Triple> batch;
      KGNET_RETURN_IF_ERROR(
          DrainUpdateBatch(query, ctx, plan.exec.get(), &sol, &batch));
      // The store is mutated only after the drain, in one atomic publish.
      const bool inserting = query.kind == QueryKind::kInsertWhere;
      const size_t applied = ctx->store->Apply(
          inserting ? rdf::TripleStore::Mutation::kInsert
                    : rdf::TripleStore::Mutation::kErase,
          batch);
      (inserting ? result->num_inserted : result->num_deleted) = applied;
      return Status::OK();
    }
    case QueryKind::kInsertData:
      break;  // applied above, before any planning
  }
  return Status::OK();
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
  QueryResult result;
  KGNET_RETURN_IF_ERROR(RunQuery(query, &ctx, &stats,
                                 info != nullptr ? &info->plan : nullptr,
                                 &result));
  if (info != nullptr) {
    info->rows_scanned = stats.rows_scanned;
    info->cancel_checks = ctx.cancel.checks();
  }
  return result;
}

}  // namespace kgnet::sparql
