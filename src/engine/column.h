// Typed column storage for in-memory tables.

#ifndef VDB_ENGINE_COLUMN_H_
#define VDB_ENGINE_COLUMN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "common/value.h"

namespace vdb::engine {

/// A single column: a typed vector plus an optional null mask. A column whose
/// type is kNull has seen no non-null values yet; its type is promoted on the
/// first non-null append (and Int64 promotes to Double if a Double arrives).
class Column {
 public:
  Column() : type_(TypeId::kNull) {}
  explicit Column(TypeId type) : type_(type) {}

  TypeId type() const { return type_; }
  size_t size() const { return size_; }

  /// Appends a value, coercing numerics and promoting the column type as
  /// needed. String<->numeric mismatches store NULL.
  void Append(const Value& v);

  void AppendNull();
  void AppendInt(int64_t v);
  void AppendDouble(double v);
  void AppendString(std::string v);

  bool IsNull(size_t row) const {
    return type_ == TypeId::kNull || (!nulls_.empty() && nulls_[row] != 0);
  }

  /// Materializes the cell as a Value.
  Value Get(size_t row) const;

  /// Raw accessors (valid only for the matching type and non-null cells).
  int64_t GetInt(size_t row) const { return ints_[row]; }
  double GetDouble(size_t row) const { return doubles_[row]; }
  const std::string& GetString(size_t row) const { return strings_[row]; }

  /// Raw storage pointers for the vectorized kernels (valid for the matching
  /// type; NULL slots hold zero/empty placeholders).
  const int64_t* IntData() const { return ints_.data(); }
  const double* DoubleData() const { return doubles_.data(); }
  /// nullptr when the column has no NULL mask (no nulls appended).
  const uint8_t* NullData() const {
    return nulls_.empty() ? nullptr : nulls_.data();
  }

  /// Numeric view: int/bool/double as double; NULL yields 0.
  double GetNumeric(size_t row) const;

  void Reserve(size_t n);

  /// Removes all rows, keeping the column type.
  void Clear();

  /// Appends rows [start, start + count) of `src`. Matching types take a
  /// bulk-copy path; mismatches fall back to the per-value Append semantics.
  void AppendRange(const Column& src, size_t start, size_t count);

  /// Appends src rows `rows[0..count)` (a selection vector) in order.
  void AppendSelected(const Column& src, const uint32_t* rows, size_t count);

  /// Appends src rows base + rows[0..count) with exactly the result of
  /// Append(src.Get(base + rows[i])) per row: Bool cells arrive as Int64, an
  /// untyped column stays untyped through NULLs and takes the first value's
  /// type, and mismatched types promote (Int64 -> Double) or store NULL
  /// (string/numeric clash). Matching types take typed bulk lanes; only a
  /// mismatch falls back to per-value Append. Grouped aggregation gathers
  /// its key columns with it, so they equal a per-group Append loop.
  void AppendSelectedValues(const Column& src, size_t base,
                            const uint32_t* rows, size_t count);

  /// Adopts prebuilt typed storage (the batch evaluator's output path). The
  /// vector matching `type` carries the data; `nulls` is either empty (no
  /// nulls) or one flag per row. Unused vectors must be empty.
  static Column FromData(TypeId type, std::vector<int64_t> ints,
                         std::vector<double> doubles,
                         std::vector<std::string> strings,
                         std::vector<uint8_t> nulls);

  /// Concatenates per-morsel column chunks type-stably: chunks of one type
  /// (kNull chunks absorb into any type) bulk-append; mixed chunk types fall
  /// back to per-value Append, reproducing exactly the coercions the
  /// whole-batch evaluator applies at its output boundary — so a chunked
  /// (morsel-parallel) evaluation concatenates to the same column, bit for
  /// bit, as one whole-batch evaluation.
  static Column ConcatChunks(std::vector<Column> chunks);

 private:
  void PromoteToDouble();
  void EnsureNullMask();

  TypeId type_;
  size_t size_ = 0;
  std::vector<int64_t> ints_;          // kInt64 / kBool
  std::vector<double> doubles_;        // kDouble
  std::vector<std::string> strings_;   // kString
  std::vector<uint8_t> nulls_;         // lazily allocated; empty = no nulls
};

}  // namespace vdb::engine

#endif  // VDB_ENGINE_COLUMN_H_
