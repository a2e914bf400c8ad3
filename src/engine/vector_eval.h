// Batch-at-a-time (vectorized) expression evaluation.
//
// The row interpreter in expr_eval.h materializes a boxed Value per cell and
// re-walks the expression tree per row; on scan-shaped paths (WHERE, HAVING,
// projection, join residuals, sample preparation) that interpretation cost
// dominates. The batch evaluator walks the tree once per batch and runs
// type-specialized inner loops directly over the columnar storage
// (engine/column.h), materializing NULL masks lazily. Node types without a
// specialized kernel (most scalar functions, mixed-type CASE) fall back to
// the row interpreter per element, so the row evaluator remains the semantic
// reference; tests/test_vector_eval.cc asserts batch == row on randomized
// expressions. rand-family functions have true batch kernels: their values
// are row-addressed (common/random.h), so the kernel and the row fallback
// agree bit for bit and rand()-bearing queries need no serial pinning.

#ifndef VDB_ENGINE_VECTOR_EVAL_H_
#define VDB_ENGINE_VECTOR_EVAL_H_

#include "common/governor.h"
#include "common/random.h"
#include "common/status.h"
#include "engine/kernels/bitmap.h"
#include "engine/table.h"
#include "sql/ast.h"

namespace vdb::engine {

/// A batch of input rows: a table plus an optional selection vector of
/// surviving row indices. [range_begin, range_end) slices the batch's
/// position domain — physical rows when `sel` is null, positions INTO `sel`
/// otherwise (a selection composed with a morsel row-range: how the
/// morsel-driven scan hands one worker its slice of a RowView without
/// copying the selection). The defaults cover the whole domain.
///
/// `rand_seed` is the per-statement query seed and `row_id_offset` shifts
/// physical rows onto global row ids (join pair-chunk scratch tables; 0
/// elsewhere): rand-family draws are pure functions of
/// (rand_seed, RowIdAt(i), node.rand_site), so every morsel split, plan
/// shape, and thread count sees identical values.
struct Batch {
  static constexpr size_t kWholeTable = static_cast<size_t>(-1);

  const Table* table = nullptr;
  const SelVector* sel = nullptr;  // null => physical rows
  uint64_t rand_seed = 0;          // per-statement query seed
  size_t range_begin = 0;
  size_t range_end = kWholeTable;  // kWholeTable => whole domain
  uint64_t row_id_offset = 0;      // global row id = physical row + offset

  size_t Domain() const {
    if (sel != nullptr) return sel->size();
    return table != nullptr ? table->num_rows() : 0;
  }
  size_t RangeEnd() const {
    return range_end == kWholeTable ? Domain() : range_end;
  }
  size_t size() const { return RangeEnd() - range_begin; }
  uint32_t RowAt(size_t i) const {
    return sel != nullptr ? (*sel)[range_begin + i]
                          : static_cast<uint32_t>(range_begin + i);
  }
  uint64_t RowIdAt(size_t i) const { return RowAt(i) + row_id_offset; }
};

/// Batch over view positions [begin, end): the range form for identity/range
/// views (zero-copy lanes), the sel-slice form otherwise. The view must
/// outlive the batch (the batch borrows its selection vector).
Batch ViewBatch(const RowView& view, uint64_t rand_seed, size_t begin,
                size_t end);
/// Batch over the whole view.
Batch ViewBatch(const RowView& view, uint64_t rand_seed);

/// Evaluates a bound expression for every batch position, column-at-a-time.
/// Returns a column of batch.size() rows, position i holding the value for
/// batch row i. Per-row semantics match EvalExpr, with two deliberate
/// deviations from the pre-vectorization executor:
///  - Boolean-valued expressions produce kBool columns (the old per-row
///    Column::Append materialization folded Bool into Int64); only
///    heterogeneous per-row type mixes still coerce through Column::Append.
///  - OR operands, CASE branches, and IN items are evaluated for the whole
///    batch rather than short-circuited per row, so expression-level errors
///    (e.g. an unknown function on the never-taken side) surface eagerly,
///    and rand() inside them draws for every row. Data-dependent NULLs
///    (division by zero etc.) are values, not errors, so results agree.
///    AND is selection-aware: when the left conjunct is selective (it
///    decides at least 3/4 of the rows false), the right conjunct is
///    evaluated only over the surviving rows (matching the row
///    interpreter's short-circuit); otherwise contiguous whole-batch lanes
///    stay cheaper and the decided rows are masked out afterwards.
Result<Column> EvalExprBatch(const sql::Expr& e, const Batch& batch);

/// Evaluates a predicate over the batch and appends the physical row indices
/// for which it is non-null and true to `*out` (in batch order). Three-valued
/// NULL logic matches EvalPredicate.
Status EvalPredicateBatch(const sql::Expr& e, const Batch& batch,
                          SelVector* out);

/// Evaluates a predicate over the whole table on up to num_threads threads:
/// one EvalPredicateBatch per row-range morsel, with the per-morsel selection
/// vectors concatenated in morsel order, so the result is identical to a
/// single-threaded evaluation. rand-family draws are row-addressed (pure
/// functions of row identity), so rand()-bearing predicates run on the same
/// morsel-parallel path as everything else; only sub-morsel inputs take the
/// single serial batch.
/// `guard` (optional everywhere in this header, nullptr = ungoverned) is
/// polled at every morsel claim; a trip unwinds with the guard's Status and
/// discards partial output.
Status EvalPredicateParallel(const sql::Expr& e, const Table& table,
                             uint64_t rand_seed, int num_threads,
                             SelVector* out,
                             const ExecGuard* guard = nullptr);

/// Fused membership scan + gather: evaluates `pred` over the whole table and
/// materializes the surviving rows in one morsel-parallel pass. Each worker
/// evaluates its morsel's batch and immediately gathers that morsel's
/// survivors into a per-morsel chunk table — survivor indices never leave
/// the worker, and the filtered morsel's columns are still cache-resident
/// when the gather touches them; chunks concatenate in morsel order. The
/// result is bit-identical to EvalPredicateParallel followed by
/// RowView::Select(...).Gather(...), without the full-table selection vector
/// or the second pass over the input. The sample builder's membership scans
/// (Bernoulli rand() < tau, verdict_hash(C) < tau) are the primary caller.
Result<TablePtr> FilterGatherParallel(const sql::Expr& pred,
                                      const Table& table, uint64_t rand_seed,
                                      int num_threads,
                                      const ExecGuard* guard = nullptr);

/// Evaluates a predicate over a RowView (selection composed with morsel
/// row-ranges) and appends the surviving PHYSICAL row indices to `*out` in
/// view order — the survivors directly form the composed downstream view, so
/// filters never gather. Morsel-parallel like EvalPredicateParallel, with the
/// same sub-morsel serial fallback.
Status EvalPredicateView(const sql::Expr& e, const RowView& view,
                         uint64_t rand_seed, int num_threads, SelVector* out,
                         const ExecGuard* guard = nullptr);

/// Evaluates a predicate over a RowView into a row bitmap (bit i set:
/// predicate non-null and true at view position i) instead of a selection
/// vector — the mask currency of the flat aggregation sink's selective
/// GROUP BY path, which walks set bits without ever expanding them to row
/// indices. Morsel-parallel with morsels rounded up to whole 64-bit words,
/// so each worker owns a disjoint word range of the output bitmap; the
/// predicate is per-row pure (rand draws are row-addressed), so the bitmap
/// CONTENT is identical at every thread count and morsel size.
Status EvalPredicateBitmap(const sql::Expr& e, const RowView& view,
                           uint64_t rand_seed, int num_threads,
                           kernels::Bitmap* out,
                           const ExecGuard* guard = nullptr);

/// Evaluates an expression over every view row, morsel-parallel: one
/// EvalExprBatch per morsel of view positions, per-morsel column chunks
/// concatenated type-stably in morsel order (Column::ConcatChunks), so the
/// result is bit-identical to one whole-view evaluation. Sub-morsel inputs
/// evaluate as a single serial batch; rand()-bearing expressions are NOT
/// special-cased (row-addressed draws).
Result<Column> EvalExprView(const sql::Expr& e, const RowView& view,
                            uint64_t rand_seed, int num_threads,
                            const ExecGuard* guard = nullptr);

/// Evaluates predicates over candidate (left_row, right_row) join pairs:
/// each call gathers its pairs into a combined left ++ right scratch table
/// and runs EvalPredicateBatch over it. Only the columns the predicate
/// actually references (bound column ordinals in its tree) are gathered —
/// the scratch keeps the full combined schema so ordinals line up, but
/// unreferenced columns stay empty. The scratch table and pass bitmap are
/// REUSED across calls — the streaming residual path evaluates millions of
/// candidate pairs in 64K-pair chunks, and per-chunk allocation dominated
/// the old flush loop; the bitmap is overwritten wholesale by the evaluator
/// (never re-zeroed per chunk). Right rows equal to
/// JoinPairView::kNullRightRow gather as NULL right columns (pushed-down
/// WHERE over left-join null extensions). The returned bitmap (bit i set:
/// predicate non-null and true for pair i) stays valid until the next Eval
/// call.
class PairPredicateEvaluator {
 public:
  PairPredicateEvaluator(const Table& left, const Table& right,
                         uint64_t rand_seed, int num_threads,
                         const ExecGuard* guard = nullptr)
      : left_(left),
        right_(right),
        rand_seed_(rand_seed),
        num_threads_(num_threads),
        guard_(guard) {}

  /// `row_id_base` is the global ordinal of the first pair in this chunk
  /// (pairs are streamed in a deterministic order), so rand-family draws in
  /// the predicate address (rand_seed, row_id_base + i, site) — for
  /// pushed-down WHERE chunks that ordinal equals the row the pair would
  /// occupy in the materialized join output, making pushdown-on and
  /// pushdown-off evaluation bit-identical.
  Result<const kernels::Bitmap*> Eval(const sql::Expr& pred,
                                      const uint32_t* lrows,
                                      const uint32_t* rrows, size_t count,
                                      uint64_t row_id_base);

 private:
  const Table& left_;
  const Table& right_;
  uint64_t rand_seed_;
  int num_threads_;
  const ExecGuard* guard_ = nullptr;  // polled per Eval chunk
  Table scratch_;               // combined schema, rows cleared per call
  const sql::Expr* mask_pred_ = nullptr;  // predicate col_mask_ was built for
  std::vector<uint8_t> col_mask_;
  kernels::Bitmap pass_;
};

/// Filters a JoinPairView in place by a predicate bound against the combined
/// (left ++ right) schema, streaming in bounded chunks through one reused
/// PairPredicateEvaluator scratch — candidate pairs are decided BEFORE the
/// combined gather, so non-survivors are never materialized. Null-extended
/// pairs evaluate with NULL right columns, matching post-materialization
/// WHERE semantics exactly (the planner's pair-view WHERE pushdown).
Status FilterJoinPairs(const sql::Expr& pred, JoinPairView* pairs,
                       uint64_t rand_seed, int num_threads,
                       const ExecGuard* guard = nullptr);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_VECTOR_EVAL_H_
