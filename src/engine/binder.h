// Name resolution: binds column references in expressions to column ordinals
// of an input table described by a Scope.

#ifndef VDB_ENGINE_BINDER_H_
#define VDB_ENGINE_BINDER_H_

#include <string>
#include <vector>

#include "common/status.h"
#include "sql/ast.h"

namespace vdb::engine {

/// The case-folded (lowercased) form in which Scope stores and compares
/// qualifiers and names.
std::string FoldName(std::string name);

/// The columns visible to an expression: each has the qualifier of the
/// relation it came from (table alias / name) and its own name. Positions
/// correspond to the physical columns of the intermediate table.
class Scope {
 public:
  void Add(const std::string& qualifier, const std::string& name);

  size_t size() const { return cols_.size(); }
  const std::string& qualifier(size_t i) const { return cols_[i].qualifier; }
  const std::string& name(size_t i) const { return cols_[i].name; }

  /// Resolves a (possibly qualified) column name; kNotFound / ambiguity
  /// errors carry the offending name.
  Result<int> Resolve(const std::string& qualifier,
                      const std::string& name) const;

  /// All column ordinals matching a star expansion (`*` or `t.*`).
  std::vector<int> Expand(const std::string& qualifier) const;

 private:
  struct Col {
    std::string qualifier;
    std::string name;
  };
  std::vector<Col> cols_;
};

/// Binds every column reference under `e`. Aggregate arguments are bound
/// like ordinary expressions; subqueries must have been resolved already
/// (kSubquery nodes yield kUnsupported).
Status BindExpr(sql::Expr* e, const Scope& scope);

/// True if the tree contains a non-window aggregate function call.
bool ContainsAggregate(const sql::Expr& e);

/// True if the tree contains a window function call.
bool ContainsWindow(const sql::Expr& e);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_BINDER_H_
