// The traced query path: one user query driven through the public entry
// point of each layer, in the order VerdictContext::TryApproximate calls
// them, with a span around every call (children of the caller's open span).
// Its answer must equal VerdictContext::ExecuteApprox's answer for the same
// query seeds.

#ifndef PERFBENCH_TRACED_H_
#define PERFBENCH_TRACED_H_

#include <string>

#include "common/status.h"
#include "core/answer_rewriter.h"
#include "core/verdict_context.h"
#include "trace.h"

namespace perfbench {

/// What the traced path learned about one query.
struct TracedQuery {
  bool approximated = false;
  bool planned = false;         // the sample planner ran
  int plan_candidates = 0;      // PlannerStats::candidates_enumerated
  std::string probe_sql;        // the NDV probe, when one was issued
  std::string rewritten_sql;    // the approximate query, when approximated
};

vdb::Result<vdb::core::ApproxAnswer> TracedExecute(
    vdb::core::VerdictContext* ctx, const std::string& sql, Tracer* tracer,
    TracedQuery* out);

}  // namespace perfbench

#endif  // PERFBENCH_TRACED_H_
