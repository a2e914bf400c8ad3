// In-memory column-store table.

#ifndef VDB_ENGINE_TABLE_H_
#define VDB_ENGINE_TABLE_H_

#include <memory>
#include <string>
#include <vector>

#include "common/governor.h"
#include "common/status.h"
#include "engine/column.h"

namespace vdb::engine {

/// A selection vector: physical row indices (ascending for filters, arbitrary
/// for gathers) into a table. The vectorized paths support row counts up to
/// 2^32 - 2 (0xFFFFFFFF is a join null-extension sentinel); joins reject
/// larger inputs.
using SelVector = std::vector<uint32_t>;

/// A table: named columns with equal row counts. Column names are stored
/// lowercase; lookup is case-insensitive.
class Table {
 public:
  Table() = default;

  /// Adds a column (must be called before rows are appended, or with a column
  /// already holding num_rows() entries).
  void AddColumn(const std::string& name, TypeId type);
  void AddColumn(const std::string& name, Column col);

  size_t num_columns() const { return columns_.size(); }
  size_t num_rows() const { return num_rows_; }

  const std::string& column_name(size_t i) const { return names_[i]; }
  const Column& column(size_t i) const { return columns_[i]; }
  Column& column(size_t i) { return columns_[i]; }

  /// Case-insensitive lookup; -1 if absent.
  int ColumnIndex(const std::string& name) const;

  /// Appends one row; `row` must have num_columns() values.
  void AppendRow(const std::vector<Value>& row);

  /// Copies row `src_row` of `src` (same schema arity) into this table.
  void AppendRowFrom(const Table& src, size_t src_row);

  /// Bulk-copies the rows selected by `sel` from `src` (same schema arity),
  /// in selection order. The vectorized executor's materialization path.
  /// With num_threads > 1 the columns are gathered in parallel (each column
  /// is independent, so the result is identical to the serial gather).
  void AppendSelected(const Table& src, const SelVector& sel,
                      int num_threads = 1);

  /// Bulk-copies rows [start, start + count) of `src` (same schema arity).
  void AppendRange(const Table& src, size_t start, size_t count);

  Value Get(size_t row, size_t col) const { return columns_[col].Get(row); }

  /// Rough heap footprint in bytes (used by the I/O-cost model in benches).
  size_t ApproxBytes() const;

  std::shared_ptr<Table> CloneSchema() const;

  /// Removes all rows, keeping the schema (and column capacity, so cleared
  /// scratch tables reuse their buffers).
  void ClearRows();

  /// Restores the row-count invariant after a caller has appended directly
  /// into the columns (the combined-gather path writes columns in parallel);
  /// every column must hold exactly `n` rows.
  void SetRowCount(size_t n) { num_rows_ = n; }

 private:
  std::vector<std::string> names_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

using TablePtr = std::shared_ptr<Table>;

/// A borrowed, late-materialized set of rows of one table: either the
/// contiguous range [begin, end) (identity/range fast path, no selection
/// vector allocated) or an explicit selection vector of physical row
/// indices. Operators pass RowViews downstream instead of gathering
/// survivors into fresh tables after every step; the single full-width
/// gather happens at the result boundary (or where an operator genuinely
/// needs contiguous storage, e.g. a join build or window frames).
///
/// Views always hold physical row indices — composing a view over a view
/// flattens immediately, so stacking never chains indirections.
class RowView {
 public:
  /// Selection vectors are uint32_t; 0xFFFFFFFF is the join null-extension
  /// sentinel, so views address at most 2^32 - 2 rows.
  static constexpr size_t kMaxRows = 0xFFFFFFFEu;

  RowView() = default;

  /// Identity view over the whole table. Errors (rather than silently
  /// truncating uint32_t indices later) when the table exceeds kMaxRows.
  static Result<RowView> All(TablePtr table);

  /// View of the physical rows named by `sel`, in selection order. Validates
  /// that every index addresses a row of `table`.
  static Result<RowView> Select(TablePtr table, SelVector sel);

  const TablePtr& table() const { return table_; }
  size_t num_rows() const { return has_sel_ ? sel_.size() : end_ - begin_; }

  /// True when the view is exactly the whole table in physical order (the
  /// zero-copy fast path: Gather returns the table itself).
  bool is_identity() const {
    return table_ != nullptr && !has_sel_ && begin_ == 0 &&
           end_ == table_->num_rows();
  }

  bool has_selection() const { return has_sel_; }
  const SelVector& selection() const { return sel_; }
  size_t range_begin() const { return begin_; }

  /// Physical row index of view position i.
  uint32_t RowAt(size_t i) const {
    return has_sel_ ? sel_[i] : static_cast<uint32_t>(begin_ + i);
  }

  /// View-of-view composition: `positions` index THIS view's rows; the
  /// result addresses the underlying table directly. Errors on positions
  /// outside [0, num_rows()).
  Result<RowView> Compose(const SelVector& positions) const;

  /// The first min(n, num_rows()) rows of the view (LIMIT).
  RowView Prefix(size_t n) const;

  /// Materializes the viewed rows. Identity views return the underlying
  /// table unchanged (zero-copy — callers who mutate must copy); range and
  /// selection views bulk-gather (column-parallel for num_threads > 1).
  TablePtr Gather(int num_threads = 1) const;

  /// Guard-aware Gather: polls `guard` (site "gather") and pre-charges the
  /// approximate output footprint against the budget (site "gather_alloc")
  /// before materializing. Identity views are zero-copy and charge nothing.
  /// The charge persists — gathered tables live to the end of the statement
  /// (ExecGuard::ResetForStatement reclaims the accounting). With guard ==
  /// nullptr this is exactly Gather().
  Result<TablePtr> GatherGuarded(int num_threads, const ExecGuard* guard) const;

  /// Materializes one column of the view (the projection path's per-column
  /// gather; morsel-parallel chunked gather for large selections).
  Column GatherColumn(const Column& src, int num_threads = 1) const;

 private:
  TablePtr table_;
  bool has_sel_ = false;
  SelVector sel_;             // meaningful when has_sel_
  size_t begin_ = 0, end_ = 0;  // meaningful when !has_sel_
};

/// The two-source counterpart of RowView: a join result that stays a view.
/// Parallel lists of (left_row, right_row) physical index pairs over two
/// borrowed tables, in output order; a right entry of kNullRightRow is a
/// LEFT JOIN null extension. Pair lists let post-join predicates — the ON
/// residual and a pushed-down WHERE — filter candidate pairs BEFORE the one
/// combined materialization, which Gather() performs (column-parallel) at
/// the result boundary: the join-stage form of the gather-once invariant.
class JoinPairView {
 public:
  /// Right-side null-extension sentinel (matches the SelVector contract:
  /// tables address at most 2^32 - 2 rows).
  static constexpr uint32_t kNullRightRow = 0xFFFFFFFFu;

  JoinPairView() = default;
  JoinPairView(TablePtr left, TablePtr right, SelVector lrows, SelVector rrows)
      : left_(std::move(left)),
        right_(std::move(right)),
        lrows_(std::move(lrows)),
        rrows_(std::move(rrows)) {}

  size_t num_pairs() const { return lrows_.size(); }
  const TablePtr& left() const { return left_; }
  const TablePtr& right() const { return right_; }
  const SelVector& lrows() const { return lrows_; }
  const SelVector& rrows() const { return rrows_; }

  /// The single combined (left ++ right) materialization of the surviving
  /// pairs; null extensions emit NULL right columns. `column_mask` (may be
  /// null = every column), one flag per combined column, narrows the output
  /// to the flagged columns, in combined order: unflagged columns are never
  /// copied and are absent from the result, which still holds one row per
  /// pair.
  TablePtr Gather(int num_threads = 1,
                  const std::vector<uint8_t>* column_mask = nullptr) const;

  /// Guard-aware Gather: polls `guard` (site "gather") and pre-charges the
  /// approximate footprint of the emitted columns (site "gather_alloc")
  /// before materializing; the charge persists with the gathered table.
  /// With guard == nullptr this is exactly Gather().
  Result<TablePtr> GatherGuarded(
      int num_threads, const ExecGuard* guard,
      const std::vector<uint8_t>* column_mask = nullptr) const;

 private:
  TablePtr left_, right_;
  SelVector lrows_, rrows_;
};

/// Gathers the combined (left ++ right) schema for `count` parallel row
/// pairs into `*out`: existing rows are cleared but column storage is kept,
/// so a streaming caller (the chunked residual/WHERE pair filter) reuses one
/// scratch table's buffers across every chunk; on an empty `*out` the schema
/// is created first. Right rows equal to JoinPairView::kNullRightRow emit
/// NULLs; sentinel-free spans bulk-gather. Column-parallel when num_threads
/// > 1 and the gather is large enough to amortize the fan-out.
///
/// `column_mask` (may be null = all columns), one flag per combined column,
/// restricts the gather to the flagged columns: unflagged columns keep the
/// schema slot but stay EMPTY while the table reports `count` rows, so the
/// caller must only read flagged columns (the predicate-scratch path gathers
/// just the columns the predicate references).
void GatherJoinPairsInto(const Table& left, const uint32_t* lrows,
                         const Table& right, const uint32_t* rrows,
                         size_t count, int num_threads, Table* out,
                         const std::vector<uint8_t>* column_mask = nullptr);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_TABLE_H_
