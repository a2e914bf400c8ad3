#include "engine/binder.h"

#include <algorithm>
#include <cctype>

#include "engine/functions.h"

namespace vdb::engine {

std::string FoldName(std::string name) {
  std::transform(name.begin(), name.end(), name.begin(),
                 [](unsigned char c) { return std::tolower(c); });
  return name;
}

void Scope::Add(const std::string& qualifier, const std::string& name) {
  cols_.push_back(Col{FoldName(qualifier), FoldName(name)});
}

Result<int> Scope::Resolve(const std::string& qualifier,
                           const std::string& name) const {
  std::string q = FoldName(qualifier), n = FoldName(name);
  int found = -1;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (cols_[i].name != n) continue;
    if (!q.empty() && cols_[i].qualifier != q) continue;
    if (found >= 0) {
      return Status::InvalidArgument("ambiguous column reference: " + name);
    }
    found = static_cast<int>(i);
  }
  if (found < 0) {
    return Status::NotFound("column not found: " +
                            (q.empty() ? n : q + "." + n));
  }
  return found;
}

std::vector<int> Scope::Expand(const std::string& qualifier) const {
  std::string q = FoldName(qualifier);
  std::vector<int> out;
  for (size_t i = 0; i < cols_.size(); ++i) {
    if (q.empty() || cols_[i].qualifier == q) {
      out.push_back(static_cast<int>(i));
    }
  }
  return out;
}

Status BindExpr(sql::Expr* e, const Scope& scope) {
  using sql::ExprKind;
  switch (e->kind) {
    case ExprKind::kColumnRef: {
      auto idx = scope.Resolve(e->qualifier, e->name);
      if (!idx.ok()) return idx.status();
      e->bound_column = idx.value();
      return Status::Ok();
    }
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      return Status::Unsupported(
          "subquery must be flattened or pre-evaluated before binding");
    default:
      break;
  }
  for (auto& a : e->args) {
    if (a) VDB_RETURN_IF_ERROR(BindExpr(a.get(), scope));
  }
  for (auto& w : e->case_whens) VDB_RETURN_IF_ERROR(BindExpr(w.get(), scope));
  for (auto& t : e->case_thens) VDB_RETURN_IF_ERROR(BindExpr(t.get(), scope));
  if (e->case_else) VDB_RETURN_IF_ERROR(BindExpr(e->case_else.get(), scope));
  for (auto& p : e->partition_by) {
    VDB_RETURN_IF_ERROR(BindExpr(p.get(), scope));
  }
  return Status::Ok();
}

bool ContainsAggregate(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunction && !e.is_window &&
      IsAggregateFunction(e.name)) {
    return true;
  }
  for (const auto& a : e.args) {
    if (a && ContainsAggregate(*a)) return true;
  }
  for (const auto& w : e.case_whens) {
    if (ContainsAggregate(*w)) return true;
  }
  for (const auto& t : e.case_thens) {
    if (ContainsAggregate(*t)) return true;
  }
  if (e.case_else && ContainsAggregate(*e.case_else)) return true;
  for (const auto& p : e.partition_by) {
    if (ContainsAggregate(*p)) return true;
  }
  return false;
}

bool ContainsWindow(const sql::Expr& e) {
  if (e.kind == sql::ExprKind::kFunction && e.is_window) return true;
  for (const auto& a : e.args) {
    if (a && ContainsWindow(*a)) return true;
  }
  for (const auto& w : e.case_whens) {
    if (ContainsWindow(*w)) return true;
  }
  for (const auto& t : e.case_thens) {
    if (ContainsWindow(*t)) return true;
  }
  if (e.case_else && ContainsWindow(*e.case_else)) return true;
  return false;
}

}  // namespace vdb::engine
