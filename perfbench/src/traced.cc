#include "traced.h"

#include <map>
#include <vector>

#include "core/flattener.h"
#include "core/query_classifier.h"
#include "core/rewriter.h"
#include "core/sample_planner.h"
#include "sql/parser.h"
#include "sql/printer.h"

namespace perfbench {

using vdb::Result;
using vdb::Status;
using vdb::core::ApproxAnswer;
using vdb::core::QueryClass;
using vdb::core::VerdictContext;
using vdb::sql::SelectStmt;

namespace {

// Same resolution as the file-local helper in core/verdict_context.cc: join
// conditions often use unqualified columns, and universe-join detection
// needs the owning relations.
void ResolveJoinEdgeAliases(QueryClass* qc, const vdb::engine::Catalog& cat) {
  auto owner_of = [&](const std::string& column) -> std::string {
    std::string found;
    for (const auto& r : qc->relations) {
      if (r.is_derived) continue;
      auto t = cat.GetTable(r.base_table);
      if (t && t->ColumnIndex(column) >= 0) {
        if (!found.empty()) return "";  // ambiguous
        found = r.alias;
      }
    }
    return found;
  };
  for (auto& e : qc->join_edges) {
    if (e.left_alias.empty()) e.left_alias = owner_of(e.left_column);
    if (e.right_alias.empty()) e.right_alias = owner_of(e.right_column);
  }
}

// Same probe as the private VerdictContext::EstimateGroupCardinality: a
// count(distinct ...) over the smallest sample of the table owning most
// group columns, issued over the middleware's connection.
int64_t EstimateGroupCardinality(
    VerdictContext* ctx, Tracer* tr, const SelectStmt& sel,
    const QueryClass& qc,
    const std::vector<vdb::sampling::SampleInfo>& samples,
    std::string* probe_sql) {
  if (sel.group_by.empty()) return 0;
  std::vector<const vdb::sql::Expr*> cols;
  for (const auto& g : sel.group_by) {
    if (g->kind != vdb::sql::ExprKind::kColumnRef) return 0;
    cols.push_back(g.get());
  }
  const vdb::engine::Catalog& cat = ctx->connection().database()->catalog();
  std::map<std::string, int> votes;
  for (const auto* c : cols) {
    for (const auto& r : qc.relations) {
      if (r.is_derived) continue;
      auto t = cat.GetTable(r.base_table);
      if (t && t->ColumnIndex(c->name) >= 0) {
        votes[r.base_table] += 1;
        break;
      }
    }
  }
  if (votes.empty()) return 0;
  std::string base = votes.begin()->first;
  for (const auto& [b, v] : votes) {
    if (v > votes[base]) base = b;
  }
  const vdb::sampling::SampleInfo* probe = nullptr;
  for (const auto& s : samples) {
    if (s.base_table != base) continue;
    if (probe == nullptr || s.sample_rows < probe->sample_rows) probe = &s;
  }
  std::string probe_table;
  if (probe != nullptr) {
    probe_table = probe->sample_table;
  } else {
    auto t = cat.GetTable(base);
    if (!t || static_cast<int64_t>(t->num_rows()) >=
                  ctx->options().min_rows_for_sampling) {
      return 0;
    }
    probe_table = base;
  }
  std::string expr;
  if (cols.size() == 1) {
    expr = cols[0]->name;
  } else {
    expr = "concat(";
    for (size_t i = 0; i < cols.size(); ++i) {
      if (i) expr += ", '|', ";
      expr += cols[i]->name;
    }
    expr += ")";
  }
  *probe_sql = "select count(distinct " + expr + ") as c from " + probe_table;
  ScopedSpan engine_span(tr, "engine.ndv_probe");
  auto rs = ctx->connection().Execute(*probe_sql);
  engine_span.Close();
  if (!rs.ok() || rs.value().NumRows() == 0) return 0;
  return rs.value().Get(0, 0).AsInt();
}

/// The approximation attempt. Returns false when the query passes through;
/// otherwise `*answer` holds the approximate answer or a failure the
/// middleware would also report.
bool TryApproximate(VerdictContext* ctx, const std::string& sql, Tracer* tr,
                    TracedQuery* out, Result<ApproxAnswer>* answer) {
  vdb::driver::Connection& conn = ctx->connection();
  const vdb::core::VerdictOptions& opts = ctx->options();

  ScopedSpan parse_span(tr, "sql.parse");
  auto parsed = vdb::sql::ParseStatement(sql);
  parse_span.Close();
  if (!parsed.ok() ||
      parsed.value()->kind != vdb::sql::StatementKind::kSelect) {
    return false;
  }
  SelectStmt* sel = parsed.value()->select.get();

  ScopedSpan classify_span(tr, "core.classify");
  if (!vdb::core::FlattenComparisonSubqueries(sel).ok()) return false;
  QueryClass qc = vdb::core::ClassifyQuery(*sel);
  if (!qc.supported) return false;
  if (qc.has_extreme) {
    *answer = Status::Unsupported(
        "the traced path does not mirror min/max decomposition");
    return true;
  }
  QueryClass* plan_qc = &qc;
  QueryClass qc_inner;
  const SelectStmt* plan_sel = sel;
  if (qc.nested_aggregate) {
    qc_inner = vdb::core::ClassifyQuery(*qc.relations[0].derived);
    plan_qc = &qc_inner;
    plan_sel = qc.relations[0].derived;
  }
  ResolveJoinEdgeAliases(plan_qc, conn.database()->catalog());
  std::map<std::string, uint64_t> base_rows;
  for (const auto& r : plan_qc->relations) {
    if (r.is_derived) {
      base_rows[r.alias] = 0;
      continue;
    }
    auto t = conn.database()->catalog().GetTable(r.base_table);
    if (!t) return false;
    base_rows[r.alias] = t->num_rows();
  }
  classify_span.Close();

  ScopedSpan catalog_span(tr, "sampling.catalog");
  auto samples = ctx->sample_catalog().SamplesFor("");
  catalog_span.Close();
  if (!samples.ok() || samples.value().empty()) return false;

  ScopedSpan probe_span(tr, "core.ndv_probe");
  const int64_t hint = EstimateGroupCardinality(ctx, tr, *plan_sel, *plan_qc,
                                                samples.value(),
                                                &out->probe_sql);
  probe_span.Close();

  ScopedSpan plan_span(tr, "core.plan");
  vdb::core::SamplePlanner planner(opts, samples.value());
  auto plan = planner.Plan(*plan_qc, base_rows, hint);
  plan_span.Close();
  out->planned = true;
  out->plan_candidates = planner.stats().candidates_enumerated;
  if (!plan.ok() || !plan.value().UsesSamples()) return false;

  ScopedSpan rewrite_span(tr, "core.rewrite");
  vdb::core::AqpRewriter rewriter(opts);
  auto rewritten =
      qc.nested_aggregate
          ? rewriter.RewriteNested(*sel, qc, qc_inner, plan.value(), hint)
          : rewriter.RewriteFlat(*sel, qc, plan.value());
  rewrite_span.Close();
  if (!rewritten.ok()) return false;

  vdb::sql::Statement rew_stmt;
  rew_stmt.kind = vdb::sql::StatementKind::kSelect;
  rew_stmt.select = std::move(rewritten.value().rewritten);
  ScopedSpan print_span(tr, "sql.print");
  out->rewritten_sql =
      vdb::sql::PrintStatement(rew_stmt, conn.dialect().print_options);
  print_span.Close();

  ScopedSpan engine_span(tr, "engine.rewritten");
  auto raw = conn.ExecuteAst(rew_stmt);
  engine_span.Close();
  if (!raw.ok()) return false;

  ScopedSpan answer_span(tr, "core.answer");
  vdb::core::AnswerRewriter answerer(opts);
  auto rewritten_answer =
      answerer.Rewrite(raw.value(), rewritten.value().columns);
  answer_span.Close();
  if (!rewritten_answer.ok()) return false;
  if (opts.min_accuracy > 0.0) {
    *answer = Status::Unsupported(
        "the traced path does not mirror the accuracy contract");
    return true;
  }
  out->approximated = true;
  *answer = std::move(rewritten_answer);
  return true;
}

}  // namespace

Result<ApproxAnswer> TracedExecute(VerdictContext* ctx, const std::string& sql,
                                   Tracer* tracer, TracedQuery* out) {
  *out = TracedQuery{};
  // The per-query preamble of VerdictContext::ExecuteApprox.
  vdb::driver::Connection& conn = ctx->connection();
  conn.database()->set_num_threads(ctx->options().num_threads);
  vdb::ExecGuard& guard = ctx->exec_guard();
  guard.ResetForStatement();
  guard.set_memory_budget_bytes(ctx->options().memory_budget_bytes);
  guard.set_deadline_after_ms(ctx->options().timeout_ms);
  conn.set_exec_guard(&guard);

  Result<ApproxAnswer> answer = Status::Internal("unset");
  if (TryApproximate(ctx, sql, tracer, out, &answer)) return answer;

  // Passthrough, as ExecuteApprox does it: flatten, then run unchanged.
  ScopedSpan parse_span(tracer, "sql.parse");
  auto parsed = vdb::sql::ParseStatement(sql);
  parse_span.Close();
  Result<vdb::engine::ResultSet> rs = Status::Internal("unset");
  if (parsed.ok() && parsed.value()->kind == vdb::sql::StatementKind::kSelect) {
    ScopedSpan flatten_span(tracer, "core.classify");
    (void)vdb::core::FlattenComparisonSubqueries(parsed.value()->select.get());
    flatten_span.Close();
    ScopedSpan exact_span(tracer, "engine.exact");
    rs = conn.ExecuteAst(*parsed.value());
  } else {
    ScopedSpan exact_span(tracer, "engine.exact");
    rs = conn.Execute(sql);
  }
  if (!rs.ok()) return rs.status();
  ApproxAnswer passthrough;
  passthrough.result = std::move(rs).ValueOrDie();
  passthrough.confidence = ctx->options().confidence;
  return passthrough;
}

}  // namespace perfbench
