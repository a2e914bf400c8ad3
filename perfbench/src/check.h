// Output checks and accuracy accounting. Every operation's answer is checked
// against the exact answer, computed once on the underlying database and
// never timed.

#ifndef PERFBENCH_CHECK_H_
#define PERFBENCH_CHECK_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/status.h"
#include "core/answer_rewriter.h"
#include "engine/database.h"

namespace perfbench {

struct ExactAnswer {
  vdb::engine::ResultSet result;
  /// Every group of the query: the answer with any LIMIT removed. An
  /// approximate top-k may rank other groups first, but never invents one.
  vdb::engine::ResultSet all_groups;
  bool limited = false;
  double ms = 0;  // wall time of `result` on the engine
};

/// Runs `sql` exactly. Correlated comparison subqueries are flattened first,
/// as the middleware's passthrough does: the engine has no native correlated
/// evaluation.
vdb::Result<ExactAnswer> ComputeExact(vdb::engine::Database* db,
                                      const std::string& sql);

/// True when both results have the same names and bit-identical cells in
/// the same row order.
bool SameResult(const vdb::engine::ResultSet& a,
                const vdb::engine::ResultSet& b);

/// Empty when a passed-through answer equals the exact one row for row;
/// otherwise what differs.
std::string CheckPassthrough(const vdb::engine::ResultSet& got,
                             const ExactAnswer& exact);

/// Empty when an approximated answer carries exactly the exact answer's
/// group keys (a subset of them under LIMIT) and finite point and error
/// columns; otherwise what is wrong.
std::string CheckApproximated(const vdb::core::ApproxAnswer& got,
                              const ExactAnswer& exact);

/// Accuracy over approximated aggregate cells.
struct Accuracy {
  std::vector<double> rel_errors;  // |approx - exact| / |exact|
  int64_t cells = 0;
  int64_t covered = 0;  // reported interval contains the exact value

  /// Adds every cell of `got` whose group appears in `exact` and whose exact
  /// value is not (near) zero.
  void Add(const vdb::core::ApproxAnswer& got, const ExactAnswer& exact);

  /// Share of cells whose interval covers the exact value (0 when empty).
  double Coverage() const {
    return cells ? static_cast<double>(covered) / static_cast<double>(cells)
                 : 0.0;
  }
};

}  // namespace perfbench

#endif  // PERFBENCH_CHECK_H_
