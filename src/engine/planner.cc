#include "engine/planner.h"

#include <algorithm>
#include <atomic>
#include <deque>
#include <map>
#include <set>
#include <vector>

#include "common/thread_pool.h"
#include "engine/agg_table.h"
#include "engine/aggregates.h"
#include "engine/binder.h"
#include "engine/expr_eval.h"
#include "engine/functions.h"
#include "engine/group_ids.h"
#include "engine/kernels/bitmap.h"
#include "engine/operators.h"
#include "engine/vector_eval.h"
#include "engine/window.h"
#include "sql/printer.h"

namespace vdb::engine {

namespace {

using sql::Expr;
using sql::ExprKind;
using sql::SelectStmt;
using sql::TableRef;

/// Test hook (SetJoinWherePushdownForTest): pair-view WHERE pushdown on/off.
// Test hook: atomic (relaxed) — tests write between queries while pool
// workers may still read; see docs/INVARIANTS.md (test-hook contract).
std::atomic<bool> g_join_where_pushdown{true};

/// Test hook (SetFlatAggSinkForTest): flat SoA aggregation sink on/off.
// Test hook: atomic (relaxed) — tests write between queries while pool
// workers may still read; see docs/INVARIANTS.md (test-hook contract).
std::atomic<bool> g_flat_agg_sink{true};

/// Test hook (SetGroupedWhereBitmapForTest): bitmap WHERE for grouped
/// queries on/off.
// Test hook: atomic (relaxed) — tests write between queries while pool
// workers may still read; see docs/INVARIANTS.md (test-hook contract).
std::atomic<bool> g_grouped_where_bitmap{true};

/// Rank-select over a filter bitmap: the view position of the rank-th set
/// bit (0-based). `wprefix[w]` is the number of set bits before word w
/// (wprefix.size() == num_words + 1) — binary-search the owning word, then
/// walk its bits. The flat sink's bitmap path uses this to turn a morsel's
/// survivor-rank range into the dense row span it must evaluate.
size_t BitmapSelect(const kernels::Bitmap& bits,
                    const std::vector<size_t>& wprefix, size_t rank) {
  size_t lo = 0, hi = bits.num_words();
  while (lo + 1 < hi) {
    const size_t mid = (lo + hi) / 2;
    if (wprefix[mid] <= rank) {
      lo = mid;
    } else {
      hi = mid;
    }
  }
  uint64_t word = bits.word(lo);
  for (size_t r = wprefix[lo]; r < rank; ++r) word &= word - 1;
  return lo * 64 + static_cast<size_t>(__builtin_ctzll(word));
}

/// The cross-morsel merge of both morsel-partial aggregation sinks. Each
/// Part carries `keys` (typed key columns, one row per local group) and
/// `hashes` (one per local group). Morsel 0's partial becomes the global
/// state verbatim — adopt(part) takes its aggregate state; every morsel-0
/// group is a first occurrence — so a one-morsel input merges nothing.
/// Later partials merge in morsel order through one GroupMergeTable:
/// fold(part, gids, num_groups) folds partial group k into global gids[k]
/// (gids at or past the previous group count are first occurrences) and
/// returns the aggregates' status; the folded partial is then released.
/// Leaves the key columns in *keys (left alone when there are no morsels)
/// and returns the group count.
template <typename Part, typename Adopt, typename Fold>
Result<size_t> MergeMorselPartials(std::vector<Part>* parts,
                                   const ExecGuard* guard,
                                   std::vector<Column>* keys, Adopt&& adopt,
                                   Fold&& fold) {
  size_t expected = 0;
  for (const Part& part : *parts) expected += part.hashes.size();
  GroupMergeTable merge;
  merge.set_guard(guard);
  std::vector<uint32_t> gids;
  for (size_t m = 0; m < parts->size(); ++m) {
    Part& part = (*parts)[m];
    if (m == 0) {
      merge.Adopt(std::move(part.keys), std::move(part.hashes), expected);
      adopt(part);
      continue;
    }
    merge.Merge(part.keys, part.hashes, &gids);
    // A budget trip during merge-table growth latches instead of throwing
    // mid-probe; discard the partially merged state here.
    VDB_RETURN_IF_ERROR(merge.guard_status());
    VDB_RETURN_IF_ERROR(fold(part, gids, merge.num_groups()));
    part = Part{};
  }
  if (!parts->empty()) *keys = merge.TakeKeys();
  return merge.num_groups();
}

// ---- rand call-site numbering ---------------------------------------------
// Every rand/random/rand_poisson node gets a 1-based call-site id, assigned
// once per statement in a fixed traversal order (select items, WHERE,
// GROUP BY, HAVING, ORDER BY, FROM tree, UNION chain; recursing into derived
// tables and subqueries). The id is part of the row-addressed draw
// (RandAddr.site), so distinct call sites draw independently while clones of
// the same site — pushdown copies, rebinds — keep identical draws. Numbering
// is two-pass: a scan pass finds the maximum id already present (statements
// may mix fresh nodes with pre-numbered cloned subtrees, in either traversal
// order), then fresh ids start above it — so a fresh node can never collide
// with a pre-numbered one and silently correlate two call sites. Re-entry on
// a fully numbered statement is a no-op.

void WalkRandSitesStmt(SelectStmt* stmt, int* next, bool assign);

void WalkRandSitesExpr(Expr* e, int* next, bool assign) {
  if (e == nullptr) return;
  if (sql::IsRandFunctionExpr(*e)) {
    if (!assign) {
      if (e->rand_site >= *next) *next = e->rand_site + 1;
    } else if (e->rand_site == 0) {
      e->rand_site = (*next)++;
    }
  }
  for (auto& a : e->args) WalkRandSitesExpr(a.get(), next, assign);
  for (auto& w : e->case_whens) WalkRandSitesExpr(w.get(), next, assign);
  for (auto& t : e->case_thens) WalkRandSitesExpr(t.get(), next, assign);
  WalkRandSitesExpr(e->case_else.get(), next, assign);
  for (auto& p : e->partition_by) WalkRandSitesExpr(p.get(), next, assign);
  if (e->subquery) WalkRandSitesStmt(e->subquery.get(), next, assign);
}

void WalkRandSitesRef(TableRef* ref, int* next, bool assign) {
  if (ref == nullptr) return;
  switch (ref->kind) {
    case TableRef::Kind::kBase:
      return;
    case TableRef::Kind::kDerived:
      WalkRandSitesStmt(ref->derived.get(), next, assign);
      return;
    case TableRef::Kind::kJoin:
      WalkRandSitesRef(ref->left.get(), next, assign);
      WalkRandSitesRef(ref->right.get(), next, assign);
      WalkRandSitesExpr(ref->on.get(), next, assign);
      return;
  }
}

void WalkRandSitesStmt(SelectStmt* stmt, int* next, bool assign) {
  if (stmt == nullptr) return;
  for (auto& it : stmt->items) WalkRandSitesExpr(it.expr.get(), next, assign);
  WalkRandSitesExpr(stmt->where.get(), next, assign);
  for (auto& g : stmt->group_by) WalkRandSitesExpr(g.get(), next, assign);
  WalkRandSitesExpr(stmt->having.get(), next, assign);
  for (auto& o : stmt->order_by) WalkRandSitesExpr(o.expr.get(), next, assign);
  WalkRandSitesRef(stmt->from.get(), next, assign);
  WalkRandSitesStmt(stmt->union_next.get(), next, assign);
}

void AssignRandSites(SelectStmt* stmt) {
  int next = 1;
  WalkRandSitesStmt(stmt, &next, /*assign=*/false);
  WalkRandSitesStmt(stmt, &next, /*assign=*/true);
}

struct RelResult {
  TablePtr table;
  Scope scope;
};

/// Splits an AND tree into conjuncts (non-owning).
void CollectConjuncts(Expr* e, std::vector<Expr*>* out) {
  if (e->kind == ExprKind::kBinary && e->binary_op == sql::BinaryOp::kAnd) {
    CollectConjuncts(e->args[0].get(), out);
    CollectConjuncts(e->args[1].get(), out);
    return;
  }
  out->push_back(e);
}

/// True if the statement draws rand anywhere outside its WHERE clause
/// (select items, GROUP BY, HAVING, ORDER BY). Such statements are barred
/// from the pair-view WHERE pushdown: see the eligibility comment in
/// RunSingle.
bool RandOutsideWhere(const SelectStmt& stmt) {
  for (const auto& it : stmt.items) {
    if (it.expr->kind != ExprKind::kStar &&
        sql::ContainsRandFunction(*it.expr)) {
      return true;
    }
  }
  for (const auto& g : stmt.group_by) {
    if (sql::ContainsRandFunction(*g)) return true;
  }
  if (stmt.having && sql::ContainsRandFunction(*stmt.having)) return true;
  for (const auto& o : stmt.order_by) {
    if (sql::ContainsRandFunction(*o.expr)) return true;
  }
  return false;
}

// ---- Column-reference collection (projection and join pruning) ------------
// Column names a statement can reference from its FROM: every kColumnRef
// name in the statement's own expressions (select list, WHERE, GROUP BY,
// HAVING, ORDER BY, every join ON condition in the FROM tree), lowercased
// as Scope stores them. Nested derived subqueries and scalar subqueries
// resolve against their own scopes (the engine has no correlated
// subqueries), so the walk does not descend into them — descending would
// also pick up their internal `*` items and defeat the prune. A `*` or
// `t.*` select item references everything; the star that is count(*)'s
// argument references nothing and is skipped.
void CollectColumnRefNames(const Expr& e, std::set<std::string>* names,
                           bool* star) {
  switch (e.kind) {
    case ExprKind::kColumnRef: names->insert(FoldName(e.name)); return;
    case ExprKind::kStar: *star = true; return;
    default: break;
  }
  for (const auto& a : e.args) {
    if (!a) continue;
    if (e.kind == ExprKind::kFunction && a->kind == ExprKind::kStar) continue;
    CollectColumnRefNames(*a, names, star);
  }
  for (const auto& w : e.case_whens) CollectColumnRefNames(*w, names, star);
  for (const auto& t : e.case_thens) CollectColumnRefNames(*t, names, star);
  if (e.case_else) CollectColumnRefNames(*e.case_else, names, star);
  for (const auto& p : e.partition_by) CollectColumnRefNames(*p, names, star);
}

void CollectColumnRefNamesFrom(const TableRef& ref,
                               std::set<std::string>* names, bool* star) {
  if (ref.on) CollectColumnRefNames(*ref.on, names, star);
  if (ref.left) CollectColumnRefNamesFrom(*ref.left, names, star);
  if (ref.right) CollectColumnRefNamesFrom(*ref.right, names, star);
}

void CollectColumnRefNamesStmt(const SelectStmt& stmt,
                               std::set<std::string>* names, bool* star) {
  for (const auto& it : stmt.items) {
    CollectColumnRefNames(*it.expr, names, star);
  }
  if (stmt.where) CollectColumnRefNames(*stmt.where, names, star);
  for (const auto& g : stmt.group_by) CollectColumnRefNames(*g, names, star);
  if (stmt.having) CollectColumnRefNames(*stmt.having, names, star);
  for (const auto& o : stmt.order_by) {
    CollectColumnRefNames(*o.expr, names, star);
  }
  if (stmt.from) CollectColumnRefNamesFrom(*stmt.from, names, star);
}

/// True if the tree contains a window-function node. Window frames need
/// contiguous physical rows, so their presence forces the one early gather.
bool ContainsWindow(const Expr& e) {
  return sql::AnyExprNode(e, [](const Expr& n) {
    return n.kind == ExprKind::kFunction && n.is_window;
  });
}

class SelectExecutor {
 public:
  SelectExecutor(Database* db, uint64_t rand_seed,
                 const ExecGuard* guard = nullptr)
      : db_(db), rand_seed_(rand_seed), guard_(guard) {}

  Result<ResultSet> Run(SelectStmt* stmt) {
    auto head = RunSingle(stmt);
    if (!head.ok()) return head.status();
    ResultSet rs = std::move(head).ValueOrDie();
    SelectStmt* next = stmt->union_next.get();
    while (next != nullptr) {
      auto part = RunSingle(next);
      if (!part.ok()) return part.status();
      const ResultSet& p = part.value();
      if (p.NumCols() != rs.NumCols()) {
        return Status::InvalidArgument("UNION ALL arity mismatch");
      }
      rs.table->AppendRange(*p.table, 0, p.NumRows());
      next = next->union_next.get();
    }
    return rs;
  }

 private:
  // ---------------------------------------------------------------- FROM --
  Result<RelResult> ExecuteFrom(TableRef* ref) {
    switch (ref->kind) {
      case TableRef::Kind::kBase: {
        TablePtr t = db_->catalog().GetTable(ref->table_name);
        if (!t) return Status::NotFound("no such table: " + ref->table_name);
        db_->AddRowsScanned(t->num_rows());
        RelResult r;
        r.table = t;
        for (size_t i = 0; i < t->num_columns(); ++i) {
          r.scope.Add(ref->EffectiveName(), t->column_name(i));
        }
        return r;
      }
      case TableRef::Kind::kDerived: {
        SelectExecutor sub(db_, rand_seed_, guard_);
        SelectStmt* d = ref->derived.get();
        // Prune derived outputs this statement never references: a
        // `select *, ...` subquery otherwise materializes every input
        // column (the VerdictDB rewriter's sid-assigning derived table
        // copies the whole scan width). Pruning only skips evaluation —
        // rand draws are (row, site)-addressed, so the surviving items see
        // identical values — and is disabled whenever dropping a column
        // could change the derived result itself (DISTINCT row set, ORDER
        // BY positions, UNION arity) or a `*` in the outer wants it all.
        if (!refs_all_ && d->union_next == nullptr && !d->distinct &&
            d->order_by.empty()) {
          sub.output_keep_ = refs_;
          sub.output_keep_active_ = true;
        }
        auto rs = sub.Run(d);
        if (!rs.ok()) return rs.status();
        RelResult r;
        r.table = rs.value().table;
        for (const auto& n : rs.value().names) r.scope.Add(ref->alias, n);
        return r;
      }
      case TableRef::Kind::kJoin:
        return ExecuteJoin(ref);
    }
    return Status::Internal("unknown table ref kind");
  }

  Result<RelResult> ExecuteJoin(TableRef* ref) {
    // The FROM-root join consumes the pushed-down WHERE (if any); nested
    // join children, executed below, must not see it.
    const Expr* pushdown = pushdown_where_;
    pushdown_where_ = nullptr;
    auto left = ExecuteFrom(ref->left.get());
    if (!left.ok()) return left.status();
    auto right = ExecuteFrom(ref->right.get());
    if (!right.ok()) return right.status();
    RelResult& lr = left.value();
    RelResult& rr = right.value();

    Scope combined;
    for (size_t i = 0; i < lr.scope.size(); ++i) {
      combined.Add(lr.scope.qualifier(i), lr.scope.name(i));
    }
    for (size_t i = 0; i < rr.scope.size(); ++i) {
      combined.Add(rr.scope.qualifier(i), rr.scope.name(i));
    }

    // Partition the ON condition into equi-key pairs and a residual.
    std::vector<Expr::Ptr> left_keys, right_keys;
    std::vector<Expr::Ptr> residual_parts;
    if (ref->on) {
      std::vector<Expr*> conjuncts;
      CollectConjuncts(ref->on.get(), &conjuncts);
      for (Expr* c : conjuncts) {
        bool is_key = false;
        if (c->kind == ExprKind::kBinary &&
            c->binary_op == sql::BinaryOp::kEq) {
          auto l0 = c->args[0]->Clone();
          auto r0 = c->args[1]->Clone();
          if (BindExpr(l0.get(), lr.scope).ok() &&
              BindExpr(r0.get(), rr.scope).ok()) {
            left_keys.push_back(std::move(l0));
            right_keys.push_back(std::move(r0));
            is_key = true;
          } else {
            auto l1 = c->args[1]->Clone();
            auto r1 = c->args[0]->Clone();
            if (BindExpr(l1.get(), lr.scope).ok() &&
                BindExpr(r1.get(), rr.scope).ok()) {
              left_keys.push_back(std::move(l1));
              right_keys.push_back(std::move(r1));
              is_key = true;
            }
          }
        }
        if (!is_key) residual_parts.push_back(c->Clone());
      }
    }
    Expr::Ptr residual = sql::AndAll(std::move(residual_parts));
    if (residual) {
      VDB_RETURN_IF_ERROR(BindExpr(residual.get(), combined));
    }

    Result<JoinPairView> joined = Status::Internal("join not executed");
    if (!left_keys.empty()) {
      joined = HashJoinPairsExprs(lr.table, rr.table, left_keys, right_keys,
                                  ref->join_type, residual.get());
    } else {
      if (ref->join_type == sql::JoinType::kLeft) {
        return Status::Unsupported("left join requires an equi condition");
      }
      joined = CrossJoinPairs(lr.table, rr.table, residual.get(), rand_seed_,
                              200'000'000, db_->num_threads(), guard_);
    }
    if (!joined.ok()) return joined.status();
    JoinPairView pairs = std::move(joined).ValueOrDie();

    // Pair-view WHERE pushdown: the query's WHERE filters candidate pairs
    // while they are still a view, so non-surviving pairs never reach the
    // combined gather below. Valid for inner joins (identical to a residual)
    // AND left joins (null-extended pairs evaluate with NULL right columns,
    // exactly as the materialized rows would) — including rand()-bearing
    // predicates: their draws address the global pair ordinal, which equals
    // the materialized row position the post-gather WHERE would see. If the
    // clone fails to bind against the combined scope, fall back to the
    // post-gather WHERE path.
    if (pushdown != nullptr) {
      auto w = pushdown->Clone();
      if (BindExpr(w.get(), combined).ok()) {
        VDB_RETURN_IF_ERROR(FilterJoinPairs(*w, &pairs, rand_seed_,
                                            db_->num_threads(), guard_));
        pushdown_where_applied_ = true;
      }
    }

    // Join output pruning: gather only the combined columns whose names the
    // statement references (refs_, which includes every ON condition, so
    // each level of a nested join keeps its parent's keys). Every column of
    // a referenced name survives, qualified or not, so binding — ambiguity
    // and not-found errors included — resolves exactly as over the full
    // scope. Pairs are untouched: the rows, their order and every
    // row-addressed rand() draw are the same. A `*` or `t.*` keeps all
    // columns. As for derived tables, at least one column always survives
    // (a bare count(*) over a cross join references none), so no operator
    // downstream meets a table without columns.
    RelResult out;
    std::vector<uint8_t> keep(combined.size(), 1);
    if (!refs_all_) {
      bool any = false;
      for (size_t c = 0; c < combined.size(); ++c) {
        keep[c] = refs_.count(combined.name(c)) != 0 ? 1 : 0;
        any = any || keep[c] != 0;
      }
      if (!any) keep[0] = 1;
    }
    for (size_t c = 0; c < combined.size(); ++c) {
      if (keep[c] != 0) out.scope.Add(combined.qualifier(c), combined.name(c));
    }
    auto gathered = pairs.GatherGuarded(db_->num_threads(), guard_,
                                        refs_all_ ? nullptr : &keep);
    if (!gathered.ok()) return gathered.status();
    out.table = std::move(gathered).ValueOrDie();
    return out;
  }

  /// Hash join on arbitrary bound key expressions. Plain column-ref keys
  /// borrow the input's own columns; expression keys are evaluated into
  /// standalone columns passed by pointer — the join inputs are never padded
  /// or copied, the output schema never contains helper columns, and
  /// residual predicates (bound against the combined schema) compose with
  /// expression keys without any ordinal shifting.
  Result<JoinPairView> HashJoinPairsExprs(const TablePtr& left,
                                          const TablePtr& right,
                                          const std::vector<Expr::Ptr>& lkeys,
                                          const std::vector<Expr::Ptr>& rkeys,
                                          sql::JoinType type,
                                          const Expr* residual) {
    // One pass per side decides borrow-vs-evaluate exactly once; the deque
    // gives evaluated columns stable addresses as it grows. The key columns
    // only need to live through HashJoinPairs — the returned pair view holds
    // row indices, not key references.
    std::deque<Column> owned;
    auto collect = [&](const Table& t, const std::vector<Expr::Ptr>& keys,
                       std::vector<const Column*>* cols) -> Status {
      Batch batch{&t, nullptr, rand_seed_};
      for (const auto& k : keys) {
        if (k->kind == ExprKind::kColumnRef && k->bound_column >= 0) {
          cols->push_back(&t.column(static_cast<size_t>(k->bound_column)));
          continue;
        }
        auto kc = EvalExprBatch(*k, batch);
        if (!kc.ok()) return kc.status();
        owned.push_back(std::move(kc).ValueOrDie());
        cols->push_back(&owned.back());
      }
      return Status::Ok();
    };
    std::vector<const Column*> lcols, rcols;
    VDB_RETURN_IF_ERROR(collect(*left, lkeys, &lcols));
    VDB_RETURN_IF_ERROR(collect(*right, rkeys, &rcols));
    return HashJoinPairs(left, right, lcols, rcols, type, residual,
                         rand_seed_, db_->num_threads(), guard_);
  }

  // ------------------------------------------------------ scalar subquery --
  Status ResolveSubqueries(Expr* e) {
    if (e->kind == ExprKind::kSubquery) {
      SelectExecutor sub(db_, rand_seed_, guard_);
      auto rs = sub.Run(e->subquery.get());
      if (!rs.ok()) return rs.status();
      const ResultSet& r = rs.value();
      if (r.NumCols() != 1) {
        return Status::InvalidArgument("scalar subquery must return 1 column");
      }
      if (r.NumRows() > 1) {
        return Status::InvalidArgument("scalar subquery returned >1 row");
      }
      e->kind = ExprKind::kLiteral;
      e->literal = r.NumRows() == 0 ? Value::Null() : r.Get(0, 0);
      e->subquery.reset();
      return Status::Ok();
    }
    if (e->kind == ExprKind::kExists) {
      SelectExecutor sub(db_, rand_seed_, guard_);
      auto rs = sub.Run(e->subquery.get());
      if (!rs.ok()) return rs.status();
      e->kind = ExprKind::kLiteral;
      e->literal = Value::Bool(rs.value().NumRows() > 0);
      e->subquery.reset();
      return Status::Ok();
    }
    for (auto& a : e->args) {
      if (a) VDB_RETURN_IF_ERROR(ResolveSubqueries(a.get()));
    }
    for (auto& w : e->case_whens) VDB_RETURN_IF_ERROR(ResolveSubqueries(w.get()));
    for (auto& t : e->case_thens) VDB_RETURN_IF_ERROR(ResolveSubqueries(t.get()));
    if (e->case_else) VDB_RETURN_IF_ERROR(ResolveSubqueries(e->case_else.get()));
    for (auto& p : e->partition_by) {
      VDB_RETURN_IF_ERROR(ResolveSubqueries(p.get()));
    }
    return Status::Ok();
  }

  // ------------------------------------------------------------ main body --
  Result<ResultSet> RunSingle(SelectStmt* stmt) {
    refs_.clear();
    refs_all_ = false;
    CollectColumnRefNamesStmt(*stmt, &refs_, &refs_all_);
    // WHERE pushdown eligibility: when the FROM root is a join, the WHERE
    // can filter candidate pairs before the join's one combined gather
    // (ExecuteJoin consumes pushdown_where_). rand()-bearing predicates are
    // eligible — row-addressed draws make pushdown and post-gather
    // evaluation of the WHERE bit-identical (global pair ordinal =
    // materialized row). Excluded: subquery-bearing predicates, whose
    // subqueries resolve only after FROM execution (the pushdown clone
    // would carry unresolved subquery nodes into the pair evaluator), and
    // statements drawing rand ANYWHERE OUTSIDE the WHERE — pushdown
    // compacts the gathered join to the WHERE survivors, so downstream
    // rand draws would address compacted positions instead of the pair
    // ordinals the post-gather plan sees, breaking plan-shape invariance.
    pushdown_where_ = nullptr;
    pushdown_where_applied_ = false;
    if (g_join_where_pushdown.load(std::memory_order_relaxed) && stmt->where &&
        !RandOutsideWhere(*stmt) &&
        !sql::AnyExprNode(*stmt->where, [](const Expr& n) {
          return n.subquery != nullptr;
        })) {
      pushdown_where_ = stmt->where.get();
    }

    // FROM
    RelResult input;
    if (stmt->from) {
      auto r = ExecuteFrom(stmt->from.get());
      if (!r.ok()) return r.status();
      input = std::move(r).ValueOrDie();
      pushdown_where_ = nullptr;  // only the FROM-root join may consume it
    } else {
      auto dummy = std::make_shared<Table>();
      Column c(TypeId::kInt64);
      c.AppendInt(0);
      dummy->AddColumn("__dummy", std::move(c));
      input.table = dummy;
      input.scope.Add("", "__dummy");
    }

    // Pre-execute scalar subqueries everywhere they may appear.
    for (auto& it : stmt->items) {
      VDB_RETURN_IF_ERROR(ResolveSubqueries(it.expr.get()));
    }
    if (stmt->where) VDB_RETURN_IF_ERROR(ResolveSubqueries(stmt->where.get()));
    if (stmt->having) VDB_RETURN_IF_ERROR(ResolveSubqueries(stmt->having.get()));
    for (auto& g : stmt->group_by) VDB_RETURN_IF_ERROR(ResolveSubqueries(g.get()));
    for (auto& o : stmt->order_by) {
      VDB_RETURN_IF_ERROR(ResolveSubqueries(o.expr.get()));
    }

    auto inview = RowView::All(input.table);
    if (!inview.ok()) return inview.status();
    RowView view = std::move(inview).ValueOrDie();

    bool grouped = !stmt->group_by.empty();
    if (!grouped) {
      for (const auto& it : stmt->items) {
        if (ContainsAggregate(*it.expr)) {
          grouped = true;
          break;
        }
      }
      if (stmt->having && ContainsAggregate(*stmt->having)) grouped = true;
    }

    // WHERE: morsel-parallel batch predicate over the input view. Grouped
    // queries keep the survivors as a row BITMAP — the flat aggregation sink
    // consumes the mask directly (selected-row group assignment and scatter),
    // so selective GROUP BYs never expand the mask into a selection vector or
    // gather survivors; grouped paths that can't consume a bitmap expand it
    // inside RunGrouped, bit-identically. Everything else keeps the
    // (table, SelVector) view — no gather; downstream operators evaluate
    // through the view and the projection (or the result boundary) performs
    // the query's one full-width gather.
    kernels::Bitmap where_bits;
    const kernels::Bitmap* group_filter = nullptr;
    if (stmt->where && !pushdown_where_applied_) {
      VDB_RETURN_IF_ERROR(BindExpr(stmt->where.get(), input.scope));
      if (grouped && g_grouped_where_bitmap.load(std::memory_order_relaxed)) {
        VDB_RETURN_IF_ERROR(EvalPredicateBitmap(*stmt->where, view, rand_seed_,
                                                db_->num_threads(),
                                                &where_bits, guard_));
        if (where_bits.CountSet() < view.num_rows()) {
          group_filter = &where_bits;
        }
      } else {
        SelVector sel;
        VDB_RETURN_IF_ERROR(EvalPredicateView(*stmt->where, view, rand_seed_,
                                              db_->num_threads(), &sel,
                                              guard_));
        if (sel.size() < view.num_rows()) {
          auto filtered = RowView::Select(input.table, std::move(sel));
          if (!filtered.ok()) return filtered.status();
          view = std::move(filtered).ValueOrDie();
        }
      }
    }

    ResultSet out;
    if (grouped) {
      auto rs = RunGrouped(stmt, view, input.scope, group_filter);
      if (!rs.ok()) return rs.status();
      out = std::move(rs).ValueOrDie();
    } else {
      auto rs = RunProjection(stmt, view, input.scope);
      if (!rs.ok()) return rs.status();
      out = std::move(rs).ValueOrDie();
    }

    // DISTINCT / ORDER BY / LIMIT compose views over the projected output
    // instead of gathering after each step; the chain materializes at most
    // once, at the result boundary below.
    auto outview = RowView::All(out.table);
    if (!outview.ok()) return outview.status();
    RowView oview = std::move(outview).ValueOrDie();
    if (stmt->distinct) VDB_RETURN_IF_ERROR(Dedupe(&oview));
    VDB_RETURN_IF_ERROR(ApplyOrderBy(stmt, out, &oview));
    if (stmt->limit >= 0) {
      oview = oview.Prefix(static_cast<size_t>(stmt->limit));
    }
    auto final_table = oview.GatherGuarded(db_->num_threads(), guard_);
    if (!final_table.ok()) return final_table.status();
    out.table = std::move(final_table).ValueOrDie();
    return out;
  }

  // --------------------------------------------------- non-grouped select --
  Result<ResultSet> RunProjection(SelectStmt* stmt, const RowView& input_view,
                                  const Scope& scope) {
    // Expand stars and build the output item list.
    struct OutItem {
      const Expr* expr = nullptr;  // non-owning (points into stmt or extras)
      std::string name;
      int direct_column = -1;  // fast path: copy the input column wholesale
    };
    std::vector<OutItem> outs;

    for (auto& item : stmt->items) {
      if (item.expr->kind == ExprKind::kStar) {
        for (int idx : scope.Expand(item.expr->qualifier)) {
          OutItem oi;
          oi.name = scope.name(static_cast<size_t>(idx));
          if (oi.name == "__dummy") continue;
          oi.direct_column = idx;
          outs.push_back(std::move(oi));
        }
        continue;
      }
      VDB_RETURN_IF_ERROR(BindExpr(item.expr.get(), scope));
      OutItem oi;
      oi.expr = item.expr.get();
      oi.name = !item.alias.empty()
                    ? item.alias
                    : (item.expr->kind == ExprKind::kColumnRef
                           ? item.expr->name
                           : sql::PrintExpr(*item.expr));
      if (item.expr->kind == ExprKind::kColumnRef) {
        oi.direct_column = item.expr->bound_column;
      }
      outs.push_back(std::move(oi));
    }

    // Derived-table projection pruning (see ExecuteFrom): drop outputs the
    // outer statement never references, before any of them are evaluated
    // or copied. At least one column always survives so the result keeps
    // its row count (a bare outer count(*) references none).
    if (output_keep_active_ && !outs.empty()) {
      std::vector<OutItem> kept;
      for (auto& oi : outs) {
        if (output_keep_.count(FoldName(oi.name)) != 0) {
          kept.push_back(std::move(oi));
        }
      }
      if (kept.empty()) kept.push_back(std::move(outs[0]));
      outs = std::move(kept);
    }

    // Window functions need contiguous physical frames: their presence
    // forces the one full-width gather up front, after which the view is
    // the identity again.
    RowView view = input_view;
    TablePtr work = view.table();
    bool has_window = false;
    for (const auto& item : stmt->items) {
      if (item.expr->kind != ExprKind::kStar && ContainsWindow(*item.expr)) {
        has_window = true;
        break;
      }
    }
    if (has_window) {
      auto gathered = view.GatherGuarded(db_->num_threads(), guard_);
      if (!gathered.ok()) return gathered.status();
      work = std::move(gathered).ValueOrDie();
      std::map<std::string, int> window_cols;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
      for (auto& item : stmt->items) {
        if (item.expr->kind == ExprKind::kStar) continue;
        VDB_RETURN_IF_ERROR(
            MaterializeWindows(item.expr.get(), &work, &window_cols));
      }
      auto wv = RowView::All(work);
      if (!wv.ok()) return wv.status();
      view = std::move(wv).ValueOrDie();
    }

    ResultSet rs;
    auto table = std::make_shared<Table>();
    for (const auto& oi : outs) {
      rs.names.push_back(oi.name);
    }
    // Materialize the output columns from the view: direct columns copy
    // (identity) or gather once; expressions evaluate morsel-parallel with
    // per-morsel chunks concatenated type-stably. This is the projection's
    // single full-width materialization.
    //
    // Expressions are evaluated BEFORE the wholesale direct-column copies
    // (results staged, appended in select order): expression pipelines
    // allocate and release large intermediate vectors, and running them
    // first lets the allocator hand that memory straight to the retained
    // copies instead of growing the heap past both at once. Expression
    // results are order-independent — rand() draws are addressed by row
    // ordinal, not evaluation sequence — so staging cannot change output.
    const int num_threads = db_->num_threads();
    std::vector<Column> computed(outs.size());
    for (size_t i = 0; i < outs.size(); ++i) {
      if (outs[i].direct_column >= 0) continue;
      auto col = EvalExprView(*outs[i].expr, view, rand_seed_, num_threads,
                              guard_);
      if (!col.ok()) return col.status();
      computed[i] = std::move(col).ValueOrDie();
    }
    for (size_t i = 0; i < outs.size(); ++i) {
      const auto& oi = outs[i];
      if (oi.direct_column >= 0) {
        const Column& src = work->column(static_cast<size_t>(oi.direct_column));
        if (view.is_identity()) {
          table->AddColumn(oi.name, src);
        } else {
          table->AddColumn(oi.name, view.GatherColumn(src, num_threads));
        }
      } else {
        table->AddColumn(oi.name, std::move(computed[i]));
      }
    }
    if (table->num_columns() == 0) {
      return Status::InvalidArgument("empty select list");
    }
    rs.table = table;
    return rs;
  }

  // ------------------------------------------------------- grouped select --
  // `filter` (optional) is a WHERE-survivor bitmap over view positions. Only
  // the flat sink consumes it directly; the reference paths expand it into
  // the equivalent selection view below (set bits in position order — the
  // exact selection vector a SelVector WHERE would have produced).
  Result<ResultSet> RunGrouped(SelectStmt* stmt, const RowView& view_in,
                               const Scope& scope,
                               const kernels::Bitmap* filter = nullptr) {
    RowView view = view_in;
    // Resolve group-by items that name select aliases.
    for (auto& g : stmt->group_by) {
      if (g->kind == ExprKind::kColumnRef && g->qualifier.empty() &&
          !scope.Resolve("", g->name).ok()) {
        for (auto& item : stmt->items) {
          if (!item.alias.empty() && item.alias == g->name) {
            g = item.expr->Clone();
            break;
          }
        }
      }
      VDB_RETURN_IF_ERROR(BindExpr(g.get(), scope));
    }

    // Collect aggregate calls (deduplicated by printed text).
    std::vector<Expr*> agg_exprs;
    std::map<std::string, int> agg_index;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    for (auto& item : stmt->items) {
      CollectAggs(item.expr.get(), &agg_exprs, &agg_index);
    }
    if (stmt->having) CollectAggs(stmt->having.get(), &agg_exprs, &agg_index);

    std::vector<AggSpec> specs;
    for (Expr* a : agg_exprs) {
      for (auto& arg : a->args) {
        if (arg->kind != ExprKind::kStar) {
          VDB_RETURN_IF_ERROR(BindExpr(arg.get(), scope));
        }
      }
      AggSpec s;
      s.name = a->name;
      s.distinct = a->distinct;
      bool star = !a->args.empty() && a->args[0]->kind == ExprKind::kStar;
      s.arg = (a->args.empty() || star) ? nullptr : a->args[0].get();
      if (a->args.size() >= 2 && a->args[1]->kind == ExprKind::kLiteral) {
        s.param = a->args[1]->literal.AsDouble();
      }
      specs.push_back(s);
    }

    // Hash aggregation. Every path below leaves its groups in
    // first-occurrence order as typed key columns (one row per group,
    // Column::Append semantics) plus either the flat sink's SoA aggregators
    // or one accumulator object per group and aggregate.
    using Accs = std::vector<std::unique_ptr<AggAccumulator>>;
    const size_t gk = stmt->group_by.size();
    std::vector<Column> key_cols(gk);
    std::vector<Accs> groups;  // object sinks: accumulators per group

    auto make_accs = [&]() -> Result<Accs> {
      Accs accs;
      accs.reserve(specs.size());
      for (const auto& s : specs) {
        auto acc = CreateAccumulator(s);
        if (!acc.ok()) return acc.status();
        accs.push_back(std::move(acc).ValueOrDie());
      }
      return accs;
    };

    // Morsel-partial aggregation needs mergeable accumulator states. When
    // it applies, it applies at EVERY thread count: the morsel decomposition
    // depends only on the row count, and partials merge strictly in morsel
    // order, so 1-thread and N-thread runs execute the identical computation
    // and produce bit-identical results (floating-point aggregates
    // included). rand()-bearing grouping/argument expressions are fine here:
    // row-addressed draws make every morsel see the values the whole-input
    // batch would. Queries it can't cover run the whole-input serial path —
    // also at every thread count, so those stay consistent too.
    const int num_threads = db_->num_threads();
    VDB_RETURN_IF_ERROR(CheckGroupableRows(view.num_rows()));
    bool partials = true;
    {
      auto probe = make_accs();
      if (!probe.ok()) return probe.status();
      for (const auto& acc : probe.value()) {
        if (!acc->Mergeable()) partials = false;
      }
    }

    // Flat sink eligibility: every aggregate must be scatterable
    // (scatterable implies mergeable — the flat sink is the SoA form of the
    // partial path). `flats` becomes the global merged state; per-morsel
    // partials are created inside the morsels.
    std::vector<std::unique_ptr<FlatAggregator>> flats;
    bool flat = g_flat_agg_sink.load(std::memory_order_relaxed) && partials;
    if (flat) {
      for (const auto& s : specs) {
        auto f = CreateFlatAggregator(s);
        if (f == nullptr) {
          flat = false;
          flats.clear();
          break;
        }
        flats.push_back(std::move(f));
      }
    }

    if (filter != nullptr && !flat) {
      SelVector sel;
      sel.reserve(filter->CountSet());
      for (size_t w = 0; w < filter->num_words(); ++w) {
        uint64_t word = filter->word(w);
        while (word != 0) {
          const size_t k = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
          sel.push_back(view.RowAt(k));
          word &= word - 1;
        }
      }
      auto filtered = RowView::Select(view.table(), std::move(sel));
      if (!filtered.ok()) return filtered.status();
      view = std::move(filtered).ValueOrDie();
      filter = nullptr;
    }

    if (!partials) {
      // Serial path (non-mergeable UDAs):
      // batch-evaluate group keys and aggregate arguments once over the
      // whole view, column-at-a-time, assign hashed group ids over the
      // materialized key columns (vectorized — no per-row string keys), and
      // accumulate each group through the selection-vector batch interface.
      VDB_RETURN_IF_ERROR(GuardCheck(guard_, "agg_partial"));
      Batch batch = ViewBatch(view, rand_seed_);
      std::vector<Column> gcols;
      gcols.reserve(stmt->group_by.size());
      for (const auto& g : stmt->group_by) {
        auto c = EvalExprBatch(*g, batch);
        if (!c.ok()) return c.status();
        gcols.push_back(std::move(c).ValueOrDie());
      }
      std::vector<Column> acols(specs.size());
      for (size_t i = 0; i < specs.size(); ++i) {
        if (specs[i].arg == nullptr) continue;
        auto c = EvalExprBatch(*specs[i].arg, batch);
        if (!c.ok()) return c.status();
        acols[i] = std::move(c).ValueOrDie();
      }

      const size_t n = view.num_rows();
      std::vector<const Column*> gptrs;
      gptrs.reserve(gcols.size());
      for (const auto& gc : gcols) gptrs.push_back(&gc);
      GroupAssignment ga = AssignGroupIds(gptrs, n);
      std::vector<SelVector> group_rows(ga.num_groups());
      for (size_t r = 0; r < n; ++r) {
        group_rows[ga.gid_of_row[r]].push_back(static_cast<uint32_t>(r));
      }
      for (size_t i = 0; i < gk; ++i) {
        key_cols[i].AppendSelectedValues(gcols[i], 0, ga.rep_row.data(),
                                         ga.num_groups());
      }
      for (size_t g = 0; g < ga.num_groups(); ++g) {
        auto accs = make_accs();
        if (!accs.ok()) return accs.status();
        groups.push_back(std::move(accs).ValueOrDie());
      }
      // An aggregate without GROUP BY keys emits one row even over an empty
      // input (count(*) = 0, sum = NULL, ...).
      if (gk == 0 && groups.empty()) {
        auto accs = make_accs();
        if (!accs.ok()) return accs.status();
        groups.push_back(std::move(accs).ValueOrDie());
        group_rows.emplace_back();
      }

      for (size_t g = 0; g < groups.size(); ++g) {
        for (size_t i = 0; i < specs.size(); ++i) {
          if (specs[i].arg != nullptr) {
            groups[g][i]->AddBatch(acols[i], group_rows[g].data(),
                                   group_rows[g].size());
          } else {
            groups[g][i]->AddRepeated(Value::Int(1), group_rows[g].size());
          }
        }
      }
    } else if (!flat) {
      // Reference partial path (mergeable but not scatterable — quantile,
      // HLL, mergeable UDAs, or the flat sink disabled): each
      // morsel evaluates the grouping and argument expressions over its own
      // slice of the view, aggregates into morsel-local partial states, and
      // the partials are merged strictly in morsel order. The decomposition
      // depends only on the view's row count, so the output — values, group
      // order, and floating-point rounding — is identical for every thread
      // count and OS schedule.
      struct MorselAgg {
        std::vector<Column> keys;      // one row per local group
        std::vector<uint64_t> hashes;  // per local group (AssignGroupIds)
        std::vector<Accs> groups;
      };
      const size_t n = view.num_rows();
      auto parts_or = ParallelMorselMapStatus<MorselAgg>(
          n, num_threads, guard_, "agg_partial",
          [&](MorselAgg& res, size_t begin, size_t end) -> Status {
            Batch batch = ViewBatch(view, rand_seed_, begin, end);
            const size_t ln = end - begin;
            std::vector<Column> gcols;
            gcols.reserve(stmt->group_by.size());
            for (const auto& g : stmt->group_by) {
              auto c = EvalExprBatch(*g, batch);
              if (!c.ok()) return c.status();
              gcols.push_back(std::move(c).ValueOrDie());
            }
            std::vector<Column> acols(specs.size());
            for (size_t i = 0; i < specs.size(); ++i) {
              if (specs[i].arg == nullptr) continue;
              auto c = EvalExprBatch(*specs[i].arg, batch);
              if (!c.ok()) return c.status();
              acols[i] = std::move(c).ValueOrDie();
            }
            std::vector<const Column*> gptrs;
            gptrs.reserve(gcols.size());
            for (const auto& gc : gcols) gptrs.push_back(&gc);
            GroupAssignment ga = AssignGroupIds(gptrs, ln);
            std::vector<SelVector> rows(ga.num_groups());
            for (size_t r = 0; r < ln; ++r) {
              rows[ga.gid_of_row[r]].push_back(static_cast<uint32_t>(r));
            }
            res.keys.resize(gcols.size());
            for (size_t i = 0; i < gcols.size(); ++i) {
              res.keys[i].AppendSelectedValues(gcols[i], 0, ga.rep_row.data(),
                                               ga.num_groups());
            }
            res.hashes = std::move(ga.group_hash);
            res.groups.reserve(ga.num_groups());
            for (size_t g = 0; g < ga.num_groups(); ++g) {
              auto accs = make_accs();
              if (!accs.ok()) return accs.status();
              Accs& lg = res.groups.emplace_back(std::move(accs).ValueOrDie());
              for (size_t i = 0; i < specs.size(); ++i) {
                if (specs[i].arg != nullptr) {
                  lg[i]->AddBatch(acols[i], rows[g].data(), rows[g].size());
                } else {
                  lg[i]->AddRepeated(Value::Int(1), rows[g].size());
                }
              }
            }
            return Status::Ok();
          });
      if (!parts_or.ok()) return parts_or.status();
      std::vector<MorselAgg>& parts = parts_or.value();

      // A first occurrence MOVES its accumulators into the global slot.
      auto merged = MergeMorselPartials(
          &parts, guard_, &key_cols,
          [&](MorselAgg& part) { groups = std::move(part.groups); },
          [&](MorselAgg& part, const std::vector<uint32_t>& gids, size_t) {
            for (size_t k = 0; k < gids.size(); ++k) {
              if (gids[k] >= groups.size()) {
                groups.push_back(std::move(part.groups[k]));
                continue;
              }
              for (size_t i = 0; i < specs.size(); ++i) {
                groups[gids[k]][i]->Merge(*part.groups[k][i]);
              }
            }
            return Status::Ok();
          });
      if (!merged.ok()) return merged.status();
      // An aggregate without GROUP BY keys emits one row even over an empty
      // input (count(*) = 0, sum = NULL, ...).
      if (gk == 0 && groups.empty()) {
        auto accs = make_accs();
        if (!accs.ok()) return accs.status();
        groups.push_back(std::move(accs).ValueOrDie());
      }
    } else {
      // Flat sink: per-morsel SoA partials (dense group ids, the group keys
      // gathered once into typed key columns at each group's representative
      // row, typed lane arrays fed by column-at-a-time scatter), merged
      // strictly in morsel order through the typed merge table. With a
      // WHERE bitmap, morsels decompose over SURVIVOR RANKS: each morsel
      // dense-evaluates its survivors' physical span (arithmetic is per-row
      // pure and rand is row-addressed, so dense evaluation produces the
      // identical values at surviving rows that compacted evaluation would)
      // and groups/scatters only the set-bit rows — the mask is never
      // expanded to row indices, and the gid sequence, first-occurrence
      // order, and group hashes all match the compacted path's.
      struct MorselFlat {
        std::vector<Column> keys;      // one row per local group
        std::vector<uint64_t> hashes;  // per local group (group-id pass)
        std::vector<std::unique_ptr<FlatAggregator>> parts;
      };

      // Word prefix popcounts for rank-select over the filter bitmap.
      std::vector<size_t> wprefix;
      size_t total = view.num_rows();
      if (filter != nullptr) {
        wprefix.resize(filter->num_words() + 1, 0);
        for (size_t w = 0; w < filter->num_words(); ++w) {
          wprefix[w + 1] =
              wprefix[w] +
              static_cast<size_t>(__builtin_popcountll(filter->word(w)));
        }
        total = wprefix.back();
      }

      auto body = [&](MorselFlat& res, size_t begin, size_t end) -> Status {
        // Resolve this morsel's dense row span and (with a filter) its
        // span-relative selected rows.
        size_t row_lo = begin, row_hi = end;
        SelVector sel_local;
        if (filter != nullptr) {
          row_lo = BitmapSelect(*filter, wprefix, begin);
          row_hi = BitmapSelect(*filter, wprefix, end - 1) + 1;
          sel_local.reserve(end - begin);
          for (size_t w = row_lo / 64; w <= (row_hi - 1) / 64; ++w) {
            uint64_t word = filter->word(w);
            while (word != 0) {
              const size_t p =
                  w * 64 + static_cast<size_t>(__builtin_ctzll(word));
              word &= word - 1;
              if (p < row_lo) continue;
              if (p >= row_hi) break;
              sel_local.push_back(static_cast<uint32_t>(p - row_lo));
            }
          }
        }
        Batch batch = ViewBatch(view, rand_seed_, row_lo, row_hi);
        const size_t span = row_hi - row_lo;
        const size_t ln = end - begin;
        // Batch columns: a bound column ref over a dense (no-selection)
        // batch reads the table column IN PLACE at the morsel's base row —
        // the zero-copy direct-column path, no per-morsel slice
        // materialization (ColumnRefVec's borrowed-lane form, carried
        // through grouping and scatter). Everything else evaluates into an
        // owned column with base 0.
        struct BatchCol {
          Column owned;
          const Column* col = nullptr;
          size_t base = 0;
        };
        auto eval_col = [&](const sql::Expr& e, BatchCol* out) -> Status {
          if (e.kind == ExprKind::kColumnRef && e.bound_column >= 0 &&
              batch.sel == nullptr) {
            out->col =
                &batch.table->column(static_cast<size_t>(e.bound_column));
            out->base = batch.range_begin;
            return Status::Ok();
          }
          auto c = EvalExprBatch(e, batch);
          if (!c.ok()) return c.status();
          out->owned = std::move(c).ValueOrDie();
          out->col = &out->owned;
          return Status::Ok();
        };
        std::vector<BatchCol> gcols(stmt->group_by.size());
        for (size_t i = 0; i < stmt->group_by.size(); ++i) {
          VDB_RETURN_IF_ERROR(eval_col(*stmt->group_by[i], &gcols[i]));
        }
        std::vector<BatchCol> acols(specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
          if (specs[i].arg == nullptr) continue;
          VDB_RETURN_IF_ERROR(eval_col(*specs[i].arg, &acols[i]));
        }
        std::vector<KeyCol> kcs;
        kcs.reserve(gcols.size());
        for (const auto& gc : gcols) kcs.push_back(KeyCol{gc.col, gc.base});
        GroupAssignment ga;
        if (filter != nullptr) {
          AssignGroupIdsSelectedBased(kcs, span, sel_local.data(), ln, &ga);
        } else {
          ga = AssignGroupIdsBased(kcs, ln);
        }
        const size_t ngroups = ga.num_groups();
        res.keys.resize(gcols.size());
        for (size_t i = 0; i < gcols.size(); ++i) {
          res.keys[i].AppendSelectedValues(*gcols[i].col, gcols[i].base,
                                           ga.rep_row.data(), ngroups);
        }
        res.hashes = std::move(ga.group_hash);
        res.parts.reserve(specs.size());
        for (size_t i = 0; i < specs.size(); ++i) {
          auto f = CreateFlatAggregator(specs[i]);
          f->set_guard(guard_);
          f->ResizeGroups(ngroups);
          const Column* col = specs[i].arg != nullptr ? acols[i].col : nullptr;
          const size_t base = specs[i].arg != nullptr ? acols[i].base : 0;
          if (filter != nullptr) {
            f->AddScatterSelected(col, base, sel_local.data(),
                                  ga.gid_of_row.data(), ln);
          } else {
            f->AddScatter(col, base, ga.gid_of_row.data(), ln);
          }
          VDB_RETURN_IF_ERROR(f->status());
          res.parts.push_back(std::move(f));
        }
        return Status::Ok();
      };
      auto parts_or = ParallelMorselMapStatus<MorselFlat>(
          total, num_threads, guard_, "agg_partial", body);
      if (!parts_or.ok()) return parts_or.status();
      std::vector<MorselFlat>& parts = parts_or.value();

      // Morsel 0's aggregators become the global state; later partials fold
      // in with one MergePartial per aggregate.
      auto merged = MergeMorselPartials(
          &parts, guard_, &key_cols,
          [&](MorselFlat& part) { flats = std::move(part.parts); },
          [&](MorselFlat& part, const std::vector<uint32_t>& gids,
              size_t num_groups) {
            for (size_t i = 0; i < specs.size(); ++i) {
              flats[i]->MergePartial(*part.parts[i], gids.data(), gids.size(),
                                     num_groups);
              VDB_RETURN_IF_ERROR(flats[i]->status());
            }
            return Status::Ok();
          });
      if (!merged.ok()) return merged.status();
      // An aggregate without GROUP BY keys emits one row even over an empty
      // input (count(*) = 0, sum = NULL, ...).
      if (gk == 0 && merged.value() == 0) {
        for (auto& f : flats) f->ResizeGroups(1);
      }
    }

    // Materialize the aggregate table: group cols then agg cols. The flat
    // sink finalizes each aggregate straight into a typed column.
    auto agg_table = std::make_shared<Table>();
    for (size_t i = 0; i < gk; ++i) {
      agg_table->AddColumn("__g" + std::to_string(i), std::move(key_cols[i]));
    }
    for (size_t i = 0; i < specs.size(); ++i) {
      Column col;
      if (flat) {
        col = flats[i]->FinalizeColumn();
      } else {
        for (const Accs& g : groups) col.Append(g[i]->Finalize());
      }
      agg_table->AddColumn("__a" + std::to_string(i), std::move(col));
    }

    // Maps from printed expression text to aggregate-table ordinal.
    std::map<std::string, int> text_to_col;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    for (size_t i = 0; i < gk; ++i) {
      const Expr& g = *stmt->group_by[i];
      text_to_col[sql::PrintExpr(g)] = static_cast<int>(i);
      if (g.kind == ExprKind::kColumnRef) {
        text_to_col[g.name] = static_cast<int>(i);
        if (!g.qualifier.empty()) {
          text_to_col[g.qualifier + "." + g.name] = static_cast<int>(i);
        }
      }
    }
    std::map<std::string, int> agg_to_col;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    for (const auto& [text, idx] : agg_index) {
      agg_to_col[text] = static_cast<int>(gk) + idx;
    }

    // HAVING: batch predicate over the aggregate table. The surviving
    // groups stay a view — the output projection below evaluates through it
    // rather than gathering the aggregate table again.
    auto aggview = RowView::All(agg_table);
    if (!aggview.ok()) return aggview.status();
    RowView aview = std::move(aggview).ValueOrDie();
    if (stmt->having) {
      auto bound = RebindPostAgg(*stmt->having, text_to_col, agg_to_col);
      if (!bound.ok()) return bound.status();
      SelVector hsel;
      VDB_RETURN_IF_ERROR(EvalPredicateView(*bound.value(), aview, rand_seed_,
                                            db_->num_threads(), &hsel,
                                            guard_));
      if (hsel.size() < aview.num_rows()) {
        auto filtered = RowView::Select(agg_table, std::move(hsel));
        if (!filtered.ok()) return filtered.status();
        aview = std::move(filtered).ValueOrDie();
      }
    }

    // Rebind select items; then materialize window columns over agg_table.
    std::vector<Expr::Ptr> bound_items;
    ResultSet rs;
    for (auto& item : stmt->items) {
      if (item.expr->kind == ExprKind::kStar) {
        return Status::InvalidArgument("'*' not allowed with GROUP BY");
      }
      auto bound = RebindPostAgg(*item.expr, text_to_col, agg_to_col);
      if (!bound.ok()) return bound.status();
      bound_items.push_back(std::move(bound).ValueOrDie());
      rs.names.push_back(!item.alias.empty()
                             ? item.alias
                             : (item.expr->kind == ExprKind::kColumnRef
                                    ? item.expr->name
                                    : sql::PrintExpr(*item.expr)));
    }
    bool has_window = false;
    for (const auto& be : bound_items) {
      if (ContainsWindow(*be)) has_window = true;
    }
    if (has_window) {
      // Window frames over the (HAVING-filtered) groups need contiguous
      // rows: gather the view, extend with window columns, reset identity.
      auto gathered = aview.GatherGuarded(db_->num_threads(), guard_);
      if (!gathered.ok()) return gathered.status();
      agg_table = std::move(gathered).ValueOrDie();
      std::map<std::string, int> window_cols;  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
      for (auto& be : bound_items) {
        VDB_RETURN_IF_ERROR(MaterializeWindows(be.get(), &agg_table,
                                               &window_cols));
      }
      auto wv = RowView::All(agg_table);
      if (!wv.ok()) return wv.status();
      aview = std::move(wv).ValueOrDie();
    }

    auto table = std::make_shared<Table>();
    for (size_t i = 0; i < bound_items.size(); ++i) {
      auto col = EvalExprView(*bound_items[i], aview, rand_seed_,
                              db_->num_threads(), guard_);
      if (!col.ok()) return col.status();
      table->AddColumn(rs.names[i], std::move(col).ValueOrDie());
    }
    rs.table = table;
    return rs;
  }

  /// Collects non-window aggregate calls, assigning bound_agg ordinals and
  /// deduplicating by printed text. Recurses into window arguments so that
  /// e.g. sum(count(*)) over (...) registers the inner count(*).
  void CollectAggs(Expr* e, std::vector<Expr*>* aggs,
                   std::map<std::string, int>* index) {  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    if (e->kind == ExprKind::kFunction && !e->is_window &&
        IsAggregateFunction(e->name)) {
      std::string text = sql::PrintExpr(*e);
      auto it = index->find(text);
      if (it == index->end()) {
        e->bound_agg = static_cast<int>(aggs->size());
        (*index)[text] = e->bound_agg;
        aggs->push_back(e);
      } else {
        e->bound_agg = it->second;
      }
      return;  // no nested aggregates
    }
    for (auto& a : e->args) {
      if (a) CollectAggs(a.get(), aggs, index);
    }
    for (auto& w : e->case_whens) CollectAggs(w.get(), aggs, index);
    for (auto& t : e->case_thens) CollectAggs(t.get(), aggs, index);
    if (e->case_else) CollectAggs(e->case_else.get(), aggs, index);
    for (auto& p : e->partition_by) CollectAggs(p.get(), aggs, index);
  }

  /// Rewrites an expression for evaluation against the aggregate table:
  /// group-by expressions and aggregate calls become bound column refs.
  Result<Expr::Ptr> RebindPostAgg(const Expr& e,
                                  const std::map<std::string, int>& group_map,  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
                                  const std::map<std::string, int>& agg_map) {  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    std::string text = sql::PrintExpr(e);
    auto git = group_map.find(text);
    if (git == group_map.end() && e.kind == ExprKind::kColumnRef) {
      git = group_map.find(e.name);
    }
    if (git != group_map.end()) {
      auto ref = sql::MakeColumnRef("", "__g" + std::to_string(git->second));
      ref->bound_column = git->second;
      return ref;
    }
    if (e.kind == ExprKind::kFunction && !e.is_window &&
        IsAggregateFunction(e.name)) {
      auto ait = agg_map.find(text);
      if (ait == agg_map.end()) {
        return Status::Internal("aggregate was not collected: " + text);
      }
      auto ref = sql::MakeColumnRef("", "__a" + std::to_string(ait->second));
      ref->bound_column = ait->second;
      return ref;
    }
    if (e.kind == ExprKind::kColumnRef) {
      return Status::InvalidArgument(
          "column must appear in GROUP BY or inside an aggregate: " + e.name);
    }
    // Recurse.
    auto out = e.Clone();
    for (auto& a : out->args) {
      if (!a || a->kind == ExprKind::kStar) continue;
      auto r = RebindPostAgg(*a, group_map, agg_map);
      if (!r.ok()) return r.status();
      a = std::move(r).ValueOrDie();
    }
    for (auto& w : out->case_whens) {
      auto r = RebindPostAgg(*w, group_map, agg_map);
      if (!r.ok()) return r.status();
      w = std::move(r).ValueOrDie();
    }
    for (auto& t : out->case_thens) {
      auto r = RebindPostAgg(*t, group_map, agg_map);
      if (!r.ok()) return r.status();
      t = std::move(r).ValueOrDie();
    }
    if (out->case_else) {
      auto r = RebindPostAgg(*out->case_else, group_map, agg_map);
      if (!r.ok()) return r.status();
      out->case_else = std::move(r).ValueOrDie();
    }
    for (auto& p : out->partition_by) {
      auto r = RebindPostAgg(*p, group_map, agg_map);
      if (!r.ok()) return r.status();
      p = std::move(r).ValueOrDie();
    }
    return out;
  }

  /// Replaces window-function nodes under `e` with references to freshly
  /// computed columns appended to `*work`. Deduplicates by printed text.
  Status MaterializeWindows(Expr* e, TablePtr* work,
                            std::map<std::string, int>* window_cols) {  // vdb-lint: allow(string-keyed-map) plan-time metadata, bounded by SELECT-list length
    if (e->kind == ExprKind::kFunction && e->is_window) {
      std::string text = sql::PrintExpr(*e);
      auto it = window_cols->find(text);
      int col;
      if (it == window_cols->end()) {
        auto wcol = EvalWindowExpr(*e, **work, rand_seed_);
        if (!wcol.ok()) return wcol.status();
        // Copy-on-write: the work table may be shared (base table).
        auto extended = std::make_shared<Table>();
        for (size_t i = 0; i < (*work)->num_columns(); ++i) {
          extended->AddColumn((*work)->column_name(i), (*work)->column(i));
        }
        col = static_cast<int>(extended->num_columns());
        extended->AddColumn("__w" + std::to_string(window_cols->size()),
                            std::move(wcol).ValueOrDie());
        *work = extended;
        (*window_cols)[text] = col;
      } else {
        col = it->second;
      }
      e->kind = ExprKind::kColumnRef;
      e->qualifier.clear();
      e->name = "__w";
      e->bound_column = col;
      e->args.clear();
      e->partition_by.clear();
      e->is_window = false;
      return Status::Ok();
    }
    for (auto& a : e->args) {
      if (a) VDB_RETURN_IF_ERROR(MaterializeWindows(a.get(), work, window_cols));
    }
    for (auto& w : e->case_whens) {
      VDB_RETURN_IF_ERROR(MaterializeWindows(w.get(), work, window_cols));
    }
    for (auto& t : e->case_thens) {
      VDB_RETURN_IF_ERROR(MaterializeWindows(t.get(), work, window_cols));
    }
    if (e->case_else) {
      VDB_RETURN_IF_ERROR(
          MaterializeWindows(e->case_else.get(), work, window_cols));
    }
    return Status::Ok();
  }

  // ------------------------------------------------------- distinct/order --
  /// Vectorized DISTINCT over the viewed output rows: hashed group ids over
  /// the output columns; the representative positions (first occurrences,
  /// ascending) compose into the view — no full-width gather. Identity views
  /// (the common case: DISTINCT runs right after the projection) address the
  /// columns directly; other views gather the key columns only.
  Status Dedupe(RowView* view) {
    VDB_RETURN_IF_ERROR(CheckGroupableRows(view->num_rows()));
    const Table& table = *view->table();
    std::vector<Column> gathered;
    std::vector<const Column*> cols;
    cols.reserve(table.num_columns());
    if (view->is_identity()) {
      for (size_t c = 0; c < table.num_columns(); ++c) {
        cols.push_back(&table.column(c));
      }
    } else {
      gathered.reserve(table.num_columns());
      for (size_t c = 0; c < table.num_columns(); ++c) {
        gathered.push_back(
            view->GatherColumn(table.column(c), db_->num_threads()));
      }
      for (const Column& g : gathered) cols.push_back(&g);
    }
    // Either way the columns are in view order, so rep_row holds view
    // positions and composes directly.
    GroupAssignment ga = AssignGroupIds(cols, view->num_rows());
    if (ga.num_groups() == view->num_rows()) return Status::Ok();
    SelVector keep(ga.rep_row.begin(), ga.rep_row.end());
    auto composed = view->Compose(keep);
    if (!composed.ok()) return composed.status();
    *view = std::move(composed).ValueOrDie();
    return Status::Ok();
  }

  /// Sorts the view positions by the resolved output columns and composes
  /// the permutation into the view; the gather happens once, downstream.
  Status ApplyOrderBy(SelectStmt* stmt, const ResultSet& rs, RowView* view) {
    if (stmt->order_by.empty() || view->num_rows() == 0) return Status::Ok();
    // Resolve each order expression to an output column.
    std::vector<std::pair<int, bool>> keys;  // (column, ascending)
    for (auto& o : stmt->order_by) {
      int col = -1;
      if (o.expr->kind == ExprKind::kLiteral &&
          o.expr->literal.type() == TypeId::kInt64) {
        int64_t ord = o.expr->literal.AsInt();
        if (ord < 1 || ord > static_cast<int64_t>(rs.NumCols())) {
          return Status::InvalidArgument("ORDER BY ordinal out of range");
        }
        col = static_cast<int>(ord - 1);
      } else if (o.expr->kind == ExprKind::kColumnRef) {
        col = rs.ColumnIndex(o.expr->name);
      }
      if (col < 0) {
        // Match by printed text against item expressions.
        std::string text = sql::PrintExpr(*o.expr);
        for (size_t i = 0; i < stmt->items.size(); ++i) {
          if (sql::PrintExpr(*stmt->items[i].expr) == text) {
            col = static_cast<int>(i);
            break;
          }
        }
      }
      if (col < 0) {
        return Status::Unsupported(
            "ORDER BY expression must reference an output column: " +
            sql::PrintExpr(*o.expr));
      }
      keys.emplace_back(col, o.ascending);
    }

    SelVector perm(view->num_rows());
    for (size_t i = 0; i < perm.size(); ++i) perm[i] = static_cast<uint32_t>(i);
    const Table& t = *rs.table;
    const RowView& v = *view;
    std::stable_sort(perm.begin(), perm.end(), [&](uint32_t a, uint32_t b) {
      for (const auto& [col, asc] : keys) {
        Value va = t.Get(v.RowAt(a), static_cast<size_t>(col));
        Value vb = t.Get(v.RowAt(b), static_cast<size_t>(col));
        // NULLs sort first ascending, last descending.
        if (va.is_null() != vb.is_null()) {
          return asc ? va.is_null() : vb.is_null();
        }
        int c = va.Compare(vb);
        if (c != 0) return asc ? c < 0 : c > 0;
      }
      return false;
    });

    auto composed = view->Compose(perm);
    if (!composed.ok()) return composed.status();
    *view = std::move(composed).ValueOrDie();
    return Status::Ok();
  }

  Database* db_;
  /// Per-statement query seed: every rand-family draw this statement (and
  /// its derived tables / subqueries) performs is addressed by it.
  uint64_t rand_seed_ = 0;
  /// Per-statement execution guard (nullptr = ungoverned), shared with
  /// derived-table / subquery sub-executors: one statement, one guard.
  const ExecGuard* guard_ = nullptr;
  /// The current statement's WHERE while eligible for pair-view pushdown;
  /// consumed (nulled) by the FROM-root ExecuteJoin, which sets the applied
  /// flag after filtering candidate pairs so RunSingle skips the normal
  /// post-materialization WHERE.
  const Expr* pushdown_where_ = nullptr;
  bool pushdown_where_applied_ = false;

  /// The column names the statement in RunSingle references
  /// (CollectColumnRefNamesStmt), computed once per RunSingle; refs_all_ is
  /// set when a `*` or `t.*` item references every column. ExecuteFrom
  /// prunes derived-table outputs and ExecuteJoin prunes its gather by it.
  std::set<std::string> refs_;
  bool refs_all_ = true;
  /// Derived-table projection pruning (set by the PARENT executor before
  /// Run): when active, RunProjection drops select outputs whose names are
  /// not in the keep set (case-insensitively). Never applied to DISTINCT /
  /// ORDER BY / UNION / grouped statements — those shapes are gated off at
  /// the call site or take the grouped path, which ignores the filter.
  std::set<std::string> output_keep_;
  bool output_keep_active_ = false;
};

}  // namespace

void SetJoinWherePushdownForTest(bool enabled) {
  g_join_where_pushdown.store(enabled, std::memory_order_relaxed);
}

void SetFlatAggSinkForTest(bool enabled) {
  g_flat_agg_sink.store(enabled, std::memory_order_relaxed);
}

void SetGroupedWhereBitmapForTest(bool enabled) {
  g_grouped_where_bitmap.store(enabled, std::memory_order_relaxed);
}

Result<ResultSet> RunSelect(Database* db, sql::SelectStmt* stmt,
                            const ExecGuard* guard) {
  // Number the statement's rand call sites, then draw its query seed — the
  // two inputs (with the row id) of every row-addressed rand draw below.
  AssignRandSites(stmt);
  SelectExecutor exec(db, db->NewQuerySeed(), guard);
  return exec.Run(stmt);
}

}  // namespace vdb::engine
