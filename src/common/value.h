// Dynamically-typed scalar value used by the expression interpreter and the
// row-at-a-time executor boundary. Columns store data natively (see
// engine/column.h); Value is only materialized per-cell during expression
// evaluation and result-set access.

#ifndef VDB_COMMON_VALUE_H_
#define VDB_COMMON_VALUE_H_

#include <cstdint>
#include <limits>
#include <string>

namespace vdb {

/// Truncating double -> int64 conversion, defined for every input: NaN,
/// +-inf and values outside [-2^63, 2^63) map to INT64_MIN, the value x86's
/// cvttsd2si returns for them. Every double -> integer coercion in the
/// engine (Value::AsInt, floor/ceil, `%` over doubles, the kernel lanes)
/// routes through here, so none of them is undefined behavior and every
/// evaluation path agrees on the out-of-range answer.
inline int64_t DoubleToInt64(double d) {
  if (d >= -9223372036854775808.0 && d < 9223372036854775808.0) {
    return static_cast<int64_t>(d);
  }
  return std::numeric_limits<int64_t>::min();
}

/// Runtime type of a Value or a Column.
enum class TypeId : uint8_t {
  kNull = 0,
  kBool,
  kInt64,
  kDouble,
  kString,
};

/// Returns "NULL", "BOOLEAN", "BIGINT", "DOUBLE" or "VARCHAR".
const char* TypeName(TypeId t);

/// Int64 remainder with the sign of the dividend, total: x % -1 == 0 (C++
/// leaves INT64_MIN % -1 undefined and x86 traps on it) and x % 0 == 0 (SQL
/// callers make a zero-divisor row NULL before using the value). The row
/// interpreter's `%`, mod() and the kernel layer's `%` lanes all use it.
inline int64_t Int64Mod(int64_t a, int64_t b) {
  return (b == 0 || b == -1) ? 0 : a % b;
}

/// A nullable scalar. Numeric types promote Int64 -> Double in arithmetic.
class Value {
 public:
  Value() : type_(TypeId::kNull) {}

  static Value Null() { return Value(); }
  static Value Bool(bool b) {
    Value v;
    v.type_ = TypeId::kBool;
    v.i_ = b ? 1 : 0;
    return v;
  }
  static Value Int(int64_t i) {
    Value v;
    v.type_ = TypeId::kInt64;
    v.i_ = i;
    return v;
  }
  static Value Double(double d) {
    Value v;
    v.type_ = TypeId::kDouble;
    v.d_ = d;
    return v;
  }
  static Value String(std::string s) {
    Value v;
    v.type_ = TypeId::kString;
    v.s_ = std::move(s);
    return v;
  }

  TypeId type() const { return type_; }
  bool is_null() const { return type_ == TypeId::kNull; }

  bool AsBool() const { return i_ != 0; }
  int64_t AsInt() const {
    return type_ == TypeId::kDouble ? DoubleToInt64(d_) : i_;
  }
  /// Numeric coercion: Int64/Bool widen to double; NULL is 0.0.
  double AsDouble() const {
    if (type_ == TypeId::kDouble) return d_;
    return static_cast<double>(i_);
  }
  const std::string& AsString() const { return s_; }

  bool is_numeric() const {
    return type_ == TypeId::kInt64 || type_ == TypeId::kDouble ||
           type_ == TypeId::kBool;
  }

  /// Three-way comparison following SQL semantics for non-null operands:
  /// numerics compare numerically, strings lexicographically. Returns
  /// negative / zero / positive. Comparing incompatible types orders by type.
  int Compare(const Value& other) const;

  /// SQL equality (both non-null). NULLs never compare equal here; callers
  /// handle NULL propagation.
  bool Equals(const Value& other) const { return Compare(other) == 0; }

  /// Display form: "NULL", integer, shortest-round-trip double, raw string.
  std::string ToString() const;

 private:
  TypeId type_;
  int64_t i_ = 0;
  double d_ = 0.0;
  std::string s_;
};

}  // namespace vdb

#endif  // VDB_COMMON_VALUE_H_
