#include "engine/vector_eval.h"

#include <algorithm>
#include <cmath>

#include "common/hash.h"
#include "common/thread_pool.h"
#include "engine/expr_eval.h"
#include "engine/functions.h"
#include "engine/kernels/kernels.h"

namespace vdb::engine {

using sql::BinaryOp;
using sql::Expr;
using sql::ExprKind;
using sql::UnaryOp;

namespace {

using kernels::Bitmap;

/// Tri-state predicate mask over a batch, one BIT per row in two
/// word-addressed bitmaps (replacing the old byte-per-row int8 vector):
///   known bit set  -> the predicate value is not NULL
///   truth bit set  -> the predicate value is TRUE (truth is a subset of
///                     known; a set truth bit implies a set known bit)
/// so NULL = known clear, FALSE = known set / truth clear, TRUE = both set.
/// Both bitmaps keep the zeroed-tail invariant (Bitmap), which makes
/// whole-word Kleene combines and popcount-based survivor counting safe
/// without masking anywhere but the final word.
struct TriMask {
  Bitmap truth;
  Bitmap known;

  size_t size() const { return truth.bits(); }

  /// Every row NULL; the state scalar fill loops start from (SetTrue /
  /// SetFalse flip individual rows known-ward).
  void ResetNull(size_t n) {
    truth.ResetZero(n);
    known.ResetZero(n);
  }
  void SetTrue(size_t k) {
    truth.Set(k);
    known.Set(k);
  }
  void SetFalse(size_t k) { known.Set(k); }
  /// From an int8 tri-state value (-1 NULL / 0 false / 1 true), starting
  /// from the ResetNull state.
  void SetTri(size_t k, int8_t v) {
    if (v >= 0) {
      known.Set(k);
      if (v != 0) truth.Set(k);
    }
  }
  bool IsTrue(size_t k) const { return truth.Test(k); }
  bool IsKnown(size_t k) const { return known.Test(k); }

  /// Rows that are NOT known-false (true or NULL) — the rows an AND's right
  /// operand still has to decide. Counted via known&~truth, whose tail is
  /// zero, so no masking is needed.
  size_t CountNotFalse() const {
    size_t false_rows = 0;
    for (size_t w = 0; w < truth.num_words(); ++w) {
      false_rows += static_cast<size_t>(
          __builtin_popcountll(known.word(w) & ~truth.word(w)));
    }
    return size() - false_rows;
  }
  /// One word of the not-false row set, tail-masked (the ~known complement
  /// raises the tail bits, unlike every other combine here).
  uint64_t NotFalseWord(size_t w) const {
    uint64_t nf = truth.word(w) | ~known.word(w);
    const size_t tail = truth.bits() & 63;
    if (tail != 0 && w + 1 == truth.num_words()) {
      nf &= ~uint64_t{0} >> (64 - tail);
    }
    return nf;
  }
};

/// known-mask construction from up to two byte null masks: known = no input
/// null. Routed through the bytes->bits kernel; `scratch` holds the second
/// mask's bits when both sides carry nulls.
void KnownFromNulls(const uint8_t* an, const uint8_t* bn, size_t n,
                    Bitmap* known, Bitmap* scratch) {
  if (an == nullptr && bn == nullptr) {
    known->ResetOnes(n);
    return;
  }
  known->ResetForOverwrite(n);
  kernels::Ops().bytes_nonzero_bits(an != nullptr ? an : bn, n,
                                    known->words());
  if (an != nullptr && bn != nullptr) {
    scratch->ResetForOverwrite(n);
    kernels::Ops().bytes_nonzero_bits(bn, n, scratch->words());
    for (size_t w = 0; w < known->num_words(); ++w) {
      known->words()[w] |= scratch->word(w);
    }
  }
  // So far the bits mark "some input null"; complement into "known".
  for (size_t w = 0; w < known->num_words(); ++w) {
    known->words()[w] = ~known->word(w);
  }
  known->ClearTail();
}

kernels::CmpOp ToCmpOp(BinaryOp op) {
  switch (op) {
    case BinaryOp::kEq: return kernels::CmpOp::kEq;
    case BinaryOp::kNe: return kernels::CmpOp::kNe;
    case BinaryOp::kLt: return kernels::CmpOp::kLt;
    case BinaryOp::kLe: return kernels::CmpOp::kLe;
    case BinaryOp::kGt: return kernels::CmpOp::kGt;
    default: return kernels::CmpOp::kGe;
  }
}

/// Intermediate vector: borrows a whole input column (zero-copy column
/// reference), owns a materialized column, broadcasts a one-row constant, or
/// — for row-fallback results whose per-row types differ (coalesce/CASE over
/// heterogeneous branches) — boxes the raw Values so that Value-level
/// semantics (boolean-ness, string vs numeric comparison) survive until the
/// output boundary.
struct Vec {
  Column owned;
  const Column* borrowed = nullptr;
  size_t offset = 0;  // first borrowed row (row-range morsel batches)
  std::vector<Value> boxed;  // used only when mixed
  bool mixed = false;
  bool is_const = false;

  const Column& col() const { return borrowed != nullptr ? *borrowed : owned; }
  /// Storage type; only meaningful when !mixed (callers branch on mixed
  /// before dispatching typed lanes).
  TypeId type() const { return col().type(); }
  size_t pos(size_t k) const { return is_const ? 0 : offset + k; }
  bool IsNull(size_t k) const {
    return mixed ? boxed[pos(k)].is_null() : col().IsNull(pos(k));
  }
  Value At(size_t k) const {
    return mixed ? boxed[pos(k)] : col().Get(pos(k));
  }
  double Num(size_t k) const {
    return mixed ? boxed[pos(k)].AsDouble() : col().GetNumeric(pos(k));
  }
  int64_t IntRaw(size_t k) const { return col().GetInt(pos(k)); }
};

/// Builds a one-row column holding `v` with its exact type (Column::Append
/// would fold Bool into Int64, losing Value-level semantics).
Column TypedSingleton(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return Column::FromData(TypeId::kNull, {}, {}, {}, {1});
    case TypeId::kBool:
    case TypeId::kInt64:
      return Column::FromData(v.type(), {v.AsInt()}, {}, {}, {});
    case TypeId::kDouble:
      return Column::FromData(TypeId::kDouble, {}, {v.AsDouble()}, {}, {});
    case TypeId::kString:
      return Column::FromData(TypeId::kString, {}, {}, {v.AsString()}, {});
  }
  return Column();
}

Vec ConstVec(const Value& v) {
  Vec x;
  x.owned = TypedSingleton(v);
  x.is_const = true;
  return x;
}

/// Wraps per-row evaluation results: a typed column when the non-null value
/// types are uniform, a boxed mixed vector otherwise.
Vec VecFromValues(std::vector<Value> vals) {
  TypeId t = TypeId::kNull;
  bool uniform = true;
  for (const Value& v : vals) {
    if (v.is_null()) continue;
    if (t == TypeId::kNull) {
      t = v.type();
    } else if (v.type() != t) {
      uniform = false;
      break;
    }
  }
  Vec out;
  if (!uniform) {
    out.mixed = true;
    out.boxed = std::move(vals);
    return out;
  }
  const size_t n = vals.size();
  std::vector<uint8_t> nulls;
  auto mark_null = [&](size_t k) {
    if (nulls.empty()) nulls.assign(n, 0);
    nulls[k] = 1;
  };
  switch (t) {
    case TypeId::kNull: {  // every value NULL
      out.owned =
          Column::FromData(TypeId::kNull, {}, {}, {},
                           std::vector<uint8_t>(n, 1));
      return out;
    }
    case TypeId::kBool:
    case TypeId::kInt64: {
      std::vector<int64_t> data(n, 0);
      for (size_t k = 0; k < n; ++k) {
        if (vals[k].is_null()) mark_null(k);
        else data[k] = vals[k].AsInt();
      }
      out.owned = Column::FromData(t, std::move(data), {}, {},
                                   std::move(nulls));
      return out;
    }
    case TypeId::kDouble: {
      std::vector<double> data(n, 0.0);
      for (size_t k = 0; k < n; ++k) {
        if (vals[k].is_null()) mark_null(k);
        else data[k] = vals[k].AsDouble();
      }
      out.owned = Column::FromData(TypeId::kDouble, {}, std::move(data), {},
                                   std::move(nulls));
      return out;
    }
    case TypeId::kString: {
      std::vector<std::string> data(n);
      for (size_t k = 0; k < n; ++k) {
        if (vals[k].is_null()) mark_null(k);
        else data[k] = vals[k].AsString();
      }
      out.owned = Column::FromData(TypeId::kString, {}, {}, std::move(data),
                                   std::move(nulls));
      return out;
    }
  }
  out.mixed = true;
  out.boxed = std::move(vals);
  return out;
}

bool IsNumericType(TypeId t) {
  return t == TypeId::kBool || t == TypeId::kInt64 || t == TypeId::kDouble;
}

int ThreeWayI(int64_t a, int64_t b) { return a < b ? -1 : (a > b ? 1 : 0); }
int ThreeWayD(double a, double b) { return a < b ? -1 : (a > b ? 1 : 0); }

bool OpHolds(BinaryOp op, int cmp) {
  switch (op) {
    case BinaryOp::kEq: return cmp == 0;
    case BinaryOp::kNe: return cmp != 0;
    case BinaryOp::kLt: return cmp < 0;
    case BinaryOp::kLe: return cmp <= 0;
    case BinaryOp::kGt: return cmp > 0;
    case BinaryOp::kGe: return cmp >= 0;
    default: return false;
  }
}

// ---- Raw numeric operand views --------------------------------------------
// Resolving a Vec to a contiguous array (converting Int64/Bool storage to
// doubles once when a double lane needs it) hoists every per-element branch
// out of the kernels below, which then auto-vectorize.

struct NumView {
  const double* data = nullptr;
  std::vector<double> storage;  // owns converted data when needed
  double cval = 0.0;
  const uint8_t* nulls = nullptr;
  bool is_const = false;
  bool const_null = false;
};

NumView ResolveNum(const Vec& v, size_t n) {
  NumView o;
  if (v.is_const) {
    o.is_const = true;
    o.const_null = v.IsNull(0);
    if (!o.const_null) o.cval = v.Num(0);
    return o;
  }
  const Column& c = v.col();
  const uint8_t* nulls = c.NullData();
  o.nulls = nulls == nullptr ? nullptr : nulls + v.offset;
  if (c.type() == TypeId::kDouble) {
    o.data = c.DoubleData() + v.offset;
  } else {  // kInt64 / kBool
    const int64_t* p = c.IntData() + v.offset;
    o.storage.resize(n);
    for (size_t k = 0; k < n; ++k) o.storage[k] = static_cast<double>(p[k]);
    o.data = o.storage.data();
  }
  return o;
}

struct IntView {
  const int64_t* data = nullptr;
  int64_t cval = 0;
  const uint8_t* nulls = nullptr;
  bool is_const = false;
  bool const_null = false;
};

IntView ResolveInt(const Vec& v) {
  IntView o;
  if (v.is_const) {
    o.is_const = true;
    o.const_null = v.IsNull(0);
    if (!o.const_null) o.cval = v.IntRaw(0);
    return o;
  }
  o.data = v.col().IntData() + v.offset;
  const uint8_t* nulls = v.col().NullData();
  o.nulls = nulls == nullptr ? nullptr : nulls + v.offset;
  return o;
}

Vec OwnedVec(Column c) {
  Vec v;
  v.owned = std::move(c);
  return v;
}

/// ORs a lane's NULL bytes (nullptr: none) into a result mask.
void OrNulls(std::vector<uint8_t>* nulls, const uint8_t* src) {
  if (src == nullptr) return;
  for (size_t k = 0; k < nulls->size(); ++k) {
    (*nulls)[k] = static_cast<uint8_t>((*nulls)[k] | (src[k] != 0 ? 1 : 0));
  }
}

/// Drops a result mask with no NULL row (storage included), so NULL-free
/// results keep the NULL-free column fast paths (Column::NullData() ==
/// nullptr).
std::vector<uint8_t> NullsOrEmpty(std::vector<uint8_t> nulls) {
  if (std::find(nulls.begin(), nulls.end(), uint8_t{1}) == nulls.end()) {
    return {};
  }
  return nulls;
}

/// The per-row NULL mask of any vector, empty when no row is NULL.
std::vector<uint8_t> RowNulls(const Vec& v, size_t n) {
  if (!v.is_const && !v.mixed && v.type() != TypeId::kNull &&
      v.col().NullData() == nullptr) {
    return {};
  }
  std::vector<uint8_t> nulls(n, 0);
  if (v.is_const || v.mixed || v.type() == TypeId::kNull) {
    for (size_t k = 0; k < n; ++k) nulls[k] = v.IsNull(k) ? 1 : 0;
  } else {
    const uint8_t* src = v.col().NullData();
    OrNulls(&nulls, src == nullptr ? nullptr : src + v.offset);
  }
  return NullsOrEmpty(std::move(nulls));
}

/// floor/ceil/abs/sqrt over a typed numeric vector; a constant operand
/// folds to a constant. floor/ceil run on the kernel layer's round lane;
/// abs/sqrt are plain loops. Int64 abs keeps the integer lane
/// (CallScalarFunction's Value::Int result); Bool takes the double lane
/// there, so it does here too.
Vec UnaryMathVec(const std::string& name, const Vec& a, size_t n) {
  if (a.type() == TypeId::kNull) return ConstVec(Value::Null());
  if (name == "abs" && a.type() == TypeId::kInt64) {
    // Wrap-defined abs: abs(INT64_MIN) == INT64_MIN (see
    // CallScalarFunction).
    auto abs_wrap = [](int64_t x) {
      return x < 0 ? static_cast<int64_t>(0ull - static_cast<uint64_t>(x))
                   : x;
    };
    const IntView x = ResolveInt(a);
    if (x.is_const) return ConstVec(Value::Int(abs_wrap(x.cval)));
    std::vector<int64_t> out(n);
    for (size_t k = 0; k < n; ++k) out[k] = abs_wrap(x.data[k]);
    return OwnedVec(Column::FromData(TypeId::kInt64, std::move(out), {}, {},
                                     RowNulls(a, n)));
  }
  const NumView x = ResolveNum(a, n);
  const size_t m = x.is_const ? 1 : n;
  const double* in = x.is_const ? &x.cval : x.data;
  if (name == "abs" || name == "sqrt") {
    std::vector<double> out(m);
    if (name == "abs") {
      for (size_t k = 0; k < m; ++k) out[k] = std::abs(in[k]);
    } else {
      for (size_t k = 0; k < m; ++k) out[k] = std::sqrt(in[k]);
    }
    if (x.is_const) return ConstVec(Value::Double(out[0]));
    return OwnedVec(Column::FromData(TypeId::kDouble, {}, std::move(out), {},
                                     RowNulls(a, n)));
  }
  // floor/ceil return Int64, like the row interpreter.
  std::vector<int64_t> out(m);
  kernels::Ops().round_f64_i64(name == "floor" ? kernels::RoundOp::kFloor
                                               : kernels::RoundOp::kCeil,
                               in, m, out.data());
  if (x.is_const) return ConstVec(Value::Int(out[0]));
  return OwnedVec(Column::FromData(TypeId::kInt64, std::move(out), {}, {},
                                   RowNulls(a, n)));
}

/// Restores the zero placeholder in the NULL slots of a lane that computed
/// every row (a zero divisor's inf/NaN, the hash of a NULL's placeholder).
template <typename T>
void ZeroNullSlots(const std::vector<uint8_t>& nulls, std::vector<T>* out) {
  for (size_t k = 0; k < nulls.size(); ++k) {
    if (nulls[k] != 0) (*out)[k] = T{0};
  }
}

/// The NULL mask of `/` and `%`: rows with a NULL operand or a zero
/// divisor (`divisor` null: the constant divisor is zero everywhere when
/// `zero_divisor`). Built only when some row can be NULL.
template <typename T>
std::vector<uint8_t> QuotientNulls(bool zero_divisor, const T* divisor,
                                   const uint8_t* an, const uint8_t* cn,
                                   size_t n) {
  if (!zero_divisor && an == nullptr && cn == nullptr) return {};
  std::vector<uint8_t> nulls(n, 0);
  if (zero_divisor) {
    for (size_t k = 0; k < n; ++k) {
      nulls[k] = (divisor == nullptr || divisor[k] == T{0}) ? 1 : 0;
    }
  }
  OrNulls(&nulls, an);
  OrNulls(&nulls, cn);
  return NullsOrEmpty(std::move(nulls));
}

/// `/` over numeric vectors: the kernel computes every quotient, then rows
/// with a NULL operand or a zero divisor (IEEE ==: -0.0 too, NaN not) are
/// marked NULL, the row interpreter's rule.
Vec DivVec(const Vec& l, const Vec& r, size_t n) {
  const NumView a = ResolveNum(l, n), c = ResolveNum(r, n);
  const kernels::KernelOps& ops = kernels::Ops();
  std::vector<double> out(n, 0.0);
  bool zero_divisor = c.is_const && c.cval == 0.0;
  if (!a.is_const && !c.is_const) {
    zero_divisor = ops.div_f64_vv(a.data, c.data, n, out.data());
  } else if (!a.is_const) {
    ops.div_f64_vc(a.data, c.cval, n, out.data());
  } else if (!c.is_const) {
    zero_divisor = ops.div_f64_cv(a.cval, c.data, n, out.data());
  } else if (n > 0) {
    double q = 0.0;
    ops.div_f64_vc(&a.cval, c.cval, 1, &q);
    std::fill(out.begin(), out.end(), q);
  }
  std::vector<uint8_t> nulls = QuotientNulls(
      zero_divisor, c.is_const ? nullptr : c.data, a.nulls, c.nulls, n);
  ZeroNullSlots(nulls, &out);
  return OwnedVec(Column::FromData(TypeId::kDouble, {}, std::move(out), {},
                                   std::move(nulls)));
}

/// An operand of `%` as an Int64 lane with Value::AsInt semantics: Int64
/// and Bool storage as-is, doubles truncated through DoubleToInt64, strings
/// read 0.
struct AsIntLane {
  const int64_t* data = nullptr;
  std::vector<int64_t> storage;
  int64_t cval = 0;
  const uint8_t* nulls = nullptr;
  bool is_const = false;
};

AsIntLane ResolveAsInt(const Vec& v, size_t n) {
  AsIntLane o;
  if (v.is_const) {
    o.is_const = true;
    o.cval = v.At(0).AsInt();
    return o;
  }
  const Column& c = v.col();
  const uint8_t* nulls = c.NullData();
  o.nulls = nulls == nullptr ? nullptr : nulls + v.offset;
  if (c.type() == TypeId::kInt64 || c.type() == TypeId::kBool) {
    o.data = c.IntData() + v.offset;
    return o;
  }
  o.storage.assign(n, 0);
  if (c.type() == TypeId::kDouble) {
    const double* p = c.DoubleData() + v.offset;
    for (size_t k = 0; k < n; ++k) o.storage[k] = DoubleToInt64(p[k]);
  }
  o.data = o.storage.data();
  return o;
}

/// `%` over non-NULL-typed vectors: Int64Mod per row (x % -1 == 0), NULL
/// where an operand is NULL or the divisor is 0.
Vec ModVec(const Vec& l, const Vec& r, size_t n) {
  const AsIntLane a = ResolveAsInt(l, n), c = ResolveAsInt(r, n);
  auto at = [](const AsIntLane& x, size_t k) {
    return x.is_const ? x.cval : x.data[k];
  };
  std::vector<int64_t> out(n);
  bool zero_divisor = false;
  for (size_t k = 0; k < n; ++k) {
    const int64_t d = at(c, k);
    out[k] = Int64Mod(at(a, k), d);
    zero_divisor |= d == 0;
  }
  return OwnedVec(Column::FromData(
      TypeId::kInt64, std::move(out), {}, {},
      QuotientNulls(zero_divisor, c.is_const ? nullptr : c.data, a.nulls,
                    c.nulls, n)));
}

/// HashUnit of rows [begin, begin + m) of a non-constant vector through the
/// kernel layer's verdict_hash lanes. NULL rows get placeholders the caller
/// masks.
void HashUnitsInto(const Vec& a, size_t begin, size_t m, double* out) {
  if (a.mixed) {
    for (size_t j = 0; j < m; ++j) {
      out[j] = a.IsNull(begin + j) ? 0.0 : HashUnit(a.At(begin + j));
    }
    return;
  }
  const kernels::KernelOps& ops = kernels::Ops();
  const Column& c = a.col();
  const size_t at = a.offset + begin;
  switch (c.type()) {
    case TypeId::kBool:
    case TypeId::kInt64: ops.hash_unit_i64(c.IntData() + at, m, out); return;
    case TypeId::kDouble:
      ops.hash_unit_f64(c.DoubleData() + at, m, out);
      return;
    case TypeId::kString:
      for (size_t j = 0; j < m; ++j) {
        const std::string& x = c.GetString(at + j);
        out[j] = UnitFromHash(HashBytes(x.data(), x.size()));
      }
      return;
    case TypeId::kNull: std::fill(out, out + m, 0.0); return;
  }
}

// Each compare is phrased under the engine's three-way convention — built
// from < and > only, exactly like Value::Compare / ThreeWayD — so NaN
// operands (which compare neither < nor >) land in the cmp == 0 bucket, and
// the lanes cannot drift from the row interpreter. NaN-compares-equal
// deviates from IEEE/standard SQL, but it is this engine's deliberate
// repo-wide convention (Value::Compare ordering, ValueGroupKey grouping,
// JoinKeysEqual — "NaN joins NaN"), and the row interpreter is the semantic
// reference the differential fuzz enforces. The kernel layer (engine/kernels)
// carries the same convention: its CmpOp table is specified against the
// scalar reference built from </> only, at every dispatch level.
//
// Constant-vs-vector shapes route through the VC kernel with the operator
// mirrored (MirrorCmp: c < x[k] == x[k] > c), so only VV and VC kernels
// exist. Null handling is separated from value compares: the kernels compare
// every lane (null slots hold zero placeholders, so the payloads are
// well-defined), and the null masks fold into `known` afterwards, clearing
// truth bits at null rows.

void CmpMask(BinaryOp bop, const IntView& a, const IntView& b, size_t n,
             TriMask* t, Bitmap* scratch) {
  const kernels::KernelOps& ops = kernels::Ops();
  const kernels::CmpOp op = ToCmpOp(bop);
  if (a.is_const && b.is_const) {
    if (OpHolds(bop, ThreeWayI(a.cval, b.cval))) {
      t->truth.ResetOnes(n);
    } else {
      t->truth.ResetZero(n);
    }
  } else {
    t->truth.ResetForOverwrite(n);
    if (!a.is_const && !b.is_const) {
      ops.cmp_i64_vv(op, a.data, b.data, n, t->truth.words());
    } else if (b.is_const) {
      ops.cmp_i64_vc(op, a.data, b.cval, n, t->truth.words());
    } else {
      ops.cmp_i64_vc(kernels::MirrorCmp(op), b.data, a.cval, n,
                     t->truth.words());
    }
  }
  KnownFromNulls(a.nulls, b.nulls, n, &t->known, scratch);
  for (size_t w = 0; w < t->truth.num_words(); ++w) {
    t->truth.words()[w] &= t->known.word(w);
  }
}

void CmpMask(BinaryOp bop, const NumView& a, const NumView& b, size_t n,
             TriMask* t, Bitmap* scratch) {
  const kernels::KernelOps& ops = kernels::Ops();
  const kernels::CmpOp op = ToCmpOp(bop);
  if (a.is_const && b.is_const) {
    if (OpHolds(bop, ThreeWayD(a.cval, b.cval))) {
      t->truth.ResetOnes(n);
    } else {
      t->truth.ResetZero(n);
    }
  } else {
    t->truth.ResetForOverwrite(n);
    if (!a.is_const && !b.is_const) {
      ops.cmp_f64_vv(op, a.data, b.data, n, t->truth.words());
    } else if (b.is_const) {
      ops.cmp_f64_vc(op, a.data, b.cval, n, t->truth.words());
    } else {
      ops.cmp_f64_vc(kernels::MirrorCmp(op), b.data, a.cval, n,
                     t->truth.words());
    }
  }
  KnownFromNulls(a.nulls, b.nulls, n, &t->known, scratch);
  for (size_t w = 0; w < t->truth.num_words(); ++w) {
    t->truth.words()[w] &= t->known.word(w);
  }
}

/// Value::Compare over raw storage; both sides must be non-null at k.
int CmpAt(const Vec& l, const Vec& r, size_t k) {
  if (l.mixed || r.mixed) return l.At(k).Compare(r.At(k));
  const TypeId lt = l.type(), rt = r.type();
  if (lt == TypeId::kInt64 && rt == TypeId::kInt64) {
    return ThreeWayI(l.IntRaw(k), r.IntRaw(k));
  }
  if (IsNumericType(lt) && IsNumericType(rt)) {
    return ThreeWayD(l.Num(k), r.Num(k));
  }
  if (lt == TypeId::kString && rt == TypeId::kString) {
    const std::string& a = l.col().GetString(l.pos(k));
    const std::string& b = r.col().GetString(r.pos(k));
    return a.compare(b);
  }
  return l.At(k).Compare(r.At(k));
}

Result<Vec> EvalVec(const Expr& e, const Batch& b);
Result<TriMask> EvalTri(const Expr& e, const Batch& b);

/// Converts a materialized vector into tri-state booleans with Value::AsBool
/// semantics (only Bool/Int64 storage can be true; doubles/strings are
/// false because Value keeps them out of the integer slot).
TriMask VecToTri(const Vec& v, size_t n) {
  TriMask t;
  if (v.mixed) {
    t.ResetNull(n);
    for (size_t k = 0; k < n; ++k) {
      const Value val = v.At(k);
      if (!val.is_null()) {
        if (val.AsBool()) {
          t.SetTrue(k);
        } else {
          t.SetFalse(k);
        }
      }
    }
    return t;
  }
  if (v.is_const) {
    // One decision broadcast to the batch. Only Bool/Int64 storage can be
    // true, mirroring the typed switch below.
    if (v.IsNull(0)) {
      t.ResetNull(n);
    } else {
      t.known.ResetOnes(n);
      const bool truth =
          (v.type() == TypeId::kBool || v.type() == TypeId::kInt64) &&
          v.IntRaw(0) != 0;
      if (truth) {
        t.truth.ResetOnes(n);
      } else {
        t.truth.ResetZero(n);
      }
    }
    return t;
  }
  switch (v.type()) {
    case TypeId::kNull:
      t.ResetNull(n);
      break;
    case TypeId::kBool:
    case TypeId::kInt64: {
      // truth = (value != 0) via the compare kernel, masked by the nulls.
      t.truth.ResetForOverwrite(n);
      kernels::Ops().cmp_i64_vc(kernels::CmpOp::kNe,
                                v.col().IntData() + v.offset, 0, n,
                                t.truth.words());
      const uint8_t* nulls = v.col().NullData();
      Bitmap scratch;
      KnownFromNulls(nulls == nullptr ? nullptr : nulls + v.offset, nullptr,
                     n, &t.known, &scratch);
      for (size_t w = 0; w < t.truth.num_words(); ++w) {
        t.truth.words()[w] &= t.known.word(w);
      }
      break;
    }
    case TypeId::kDouble:
    case TypeId::kString: {
      // Never true; NULL where the storage is null.
      t.truth.ResetZero(n);
      const uint8_t* nulls = v.col().NullData();
      Bitmap scratch;
      KnownFromNulls(nulls == nullptr ? nullptr : nulls + v.offset, nullptr,
                     n, &t.known, &scratch);
      break;
    }
  }
  return t;
}

/// Materializes tri-state booleans as a nullable Bool column vector.
Vec TriToVec(const TriMask& t) {
  const size_t n = t.size();
  std::vector<int64_t> ints(n);
  std::vector<uint8_t> nulls;
  const bool any_null = t.known.CountSet() != n;
  if (any_null) nulls.assign(n, 0);
  for (size_t k = 0; k < n; ++k) {
    if (!t.IsKnown(k)) {
      nulls[k] = 1;
    } else {
      ints[k] = t.IsTrue(k) ? 1 : 0;
    }
  }
  Vec v;
  v.owned = Column::FromData(TypeId::kBool, std::move(ints), {}, {},
                             std::move(nulls));
  return v;
}

/// Comparison kernels (kEq..kGe): type-specialized lanes, NULL -> unknown.
TriMask CompareVecs(BinaryOp op, const Vec& l, const Vec& r, size_t n) {
  TriMask t;
  if (l.mixed || r.mixed) {
    t.ResetNull(n);
    for (size_t k = 0; k < n; ++k) {
      if (l.IsNull(k) || r.IsNull(k)) continue;
      if (OpHolds(op, l.At(k).Compare(r.At(k)))) {
        t.SetTrue(k);
      } else {
        t.SetFalse(k);
      }
    }
    return t;
  }
  const TypeId lt = l.type(), rt = r.type();
  if (lt == TypeId::kNull || rt == TypeId::kNull) {
    t.ResetNull(n);
    return t;
  }
  if (lt == TypeId::kInt64 && rt == TypeId::kInt64) {
    IntView a = ResolveInt(l), bview = ResolveInt(r);
    if (a.const_null || bview.const_null) {
      t.ResetNull(n);
      return t;
    }
    Bitmap scratch;
    CmpMask(op, a, bview, n, &t, &scratch);
    return t;
  }
  if (IsNumericType(lt) && IsNumericType(rt)) {
    NumView a = ResolveNum(l, n), bview = ResolveNum(r, n);
    if (a.const_null || bview.const_null) {
      t.ResetNull(n);
      return t;
    }
    Bitmap scratch;
    CmpMask(op, a, bview, n, &t, &scratch);
    return t;
  }
  if (lt == TypeId::kString && rt == TypeId::kString) {
    t.ResetNull(n);
    for (size_t k = 0; k < n; ++k) {
      if (l.IsNull(k) || r.IsNull(k)) continue;
      if (OpHolds(op, l.col().GetString(l.pos(k)).compare(
                          r.col().GetString(r.pos(k))))) {
        t.SetTrue(k);
      } else {
        t.SetFalse(k);
      }
    }
    return t;
  }
  // Mixed string/numeric: rare; box per element (type-ordered compare).
  t.ResetNull(n);
  for (size_t k = 0; k < n; ++k) {
    if (l.IsNull(k) || r.IsNull(k)) continue;
    if (OpHolds(op, l.At(k).Compare(r.At(k)))) {
      t.SetTrue(k);
    } else {
      t.SetFalse(k);
    }
  }
  return t;
}

TriMask LikeVecs(const Vec& l, const Vec& r, size_t n) {
  TriMask t;
  t.ResetNull(n);
  // The pattern is almost always a literal: render it once.
  std::string const_pattern;
  const bool pattern_const = r.is_const && !r.IsNull(0);
  if (pattern_const) const_pattern = r.At(0).ToString();
  for (size_t k = 0; k < n; ++k) {
    if (l.IsNull(k) || r.IsNull(k)) continue;
    const std::string text = l.type() == TypeId::kString
                                 ? l.col().GetString(l.pos(k))
                                 : l.At(k).ToString();
    if (LikeMatch(text,
                  pattern_const ? const_pattern : r.At(k).ToString())) {
      t.SetTrue(k);
    } else {
      t.SetFalse(k);
    }
  }
  return t;
}

/// Row-interpreter fallback for node types without a batch kernel (most
/// scalar functions, mixed-type CASE): evaluates the subtree per selected
/// row. rand-family draws inside the subtree are row-addressed, so the
/// fallback and the batch kernels produce identical values regardless of
/// which path a node takes.
Result<Vec> RowFallback(const Expr& e, const Batch& b) {
  const size_t n = b.size();
  std::vector<Value> vals;
  vals.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    RowCtx ctx{b.table, b.RowAt(k), b.rand_seed, b.row_id_offset};
    auto r = EvalExpr(e, ctx);
    if (!r.ok()) return r.status();
    vals.push_back(std::move(r).ValueOrDie());
  }
  return VecFromValues(std::move(vals));
}

Result<Vec> ColumnRefVec(const Expr& e, const Batch& b) {
  if (e.bound_column < 0) {
    return Status::Internal("unbound column reference: " + e.name);
  }
  const Column& src = b.table->column(static_cast<size_t>(e.bound_column));
  Vec v;
  if (b.sel == nullptr) {
    // Whole-table batch or row-range morsel: zero-copy reference, with the
    // range start carried as a lane offset.
    v.borrowed = &src;
    v.offset = b.range_begin;
  } else {
    // Selection (possibly a morsel slice of it): gather the referenced rows.
    v.owned.AppendSelected(src, b.sel->data() + b.range_begin, b.size());
  }
  return v;
}

/// The variational rewrite's subsample-id expression `base + floor(u * c)`
/// (core/rewriter.cc): u is rand() for uniform samples or verdict_hash(x)
/// for universe samples, base an Int64 literal, c an Int64 or Double
/// literal, in either operand order of + and *.
struct SidShape {
  const Expr* unit = nullptr;  // the rand() or verdict_hash(x) call
  bool is_rand = false;
  int64_t base = 0;
  double scale = 0.0;
};

bool IsLiteralOf(const Expr& e, TypeId t) {
  return e.kind == ExprKind::kLiteral && e.literal.type() == t;
}

bool IsCall(const Expr& e, const char* name, size_t arity) {
  return e.kind == ExprKind::kFunction && !e.is_window && e.name == name &&
         e.args.size() == arity;
}

bool MatchSid(const Expr& e, SidShape* s) {
  if (e.kind != ExprKind::kBinary || e.binary_op != BinaryOp::kAdd) {
    return false;
  }
  const Expr* base = e.args[0].get();
  const Expr* fl = e.args[1].get();
  if (!IsLiteralOf(*base, TypeId::kInt64)) std::swap(base, fl);
  if (!IsLiteralOf(*base, TypeId::kInt64) || !IsCall(*fl, "floor", 1)) {
    return false;
  }
  const Expr& prod = *fl->args[0];
  if (prod.kind != ExprKind::kBinary || prod.binary_op != BinaryOp::kMul) {
    return false;
  }
  auto numeric_literal = [](const Expr& x) {
    return IsLiteralOf(x, TypeId::kInt64) || IsLiteralOf(x, TypeId::kDouble);
  };
  const Expr* unit = prod.args[0].get();
  const Expr* scale = prod.args[1].get();
  if (!numeric_literal(*scale)) std::swap(unit, scale);
  if (!numeric_literal(*scale)) return false;
  s->is_rand = IsCall(*unit, "rand", 0) || IsCall(*unit, "random", 0);
  if (!s->is_rand && !IsCall(*unit, "verdict_hash", 1) &&
      !IsCall(*unit, "unit_hash", 1)) {
    return false;
  }
  s->unit = unit;
  s->base = base->literal.AsInt();
  s->scale = scale->literal.AsDouble();
  return true;
}

/// Fused subsample ids: one pass over the batch in L1-sized blocks, each
/// drawing (rand) or hashing (verdict_hash) its units straight into a stack
/// buffer that the sid kernel turns into Int64 ids — no intermediate
/// columns, no NULL-mask merges. Every id is computed exactly as the
/// unfused nodes compute it (the same row-addressed draw or HashUnit, the
/// same double product, the same floor, the same wrapping add), so the
/// result is bit-identical to evaluating the tree node by node.
Result<Vec> EvalSid(const SidShape& s, const Batch& b) {
  constexpr size_t kBlock = 256;
  const size_t n = b.size();
  const kernels::KernelOps& ops = kernels::Ops();
  std::vector<int64_t> out(n);
  double units[kBlock];
  if (s.is_rand) {
    const uint64_t site = static_cast<uint64_t>(s.unit->rand_site);
    for (size_t begin = 0; begin < n; begin += kBlock) {
      const size_t m = std::min(kBlock, n - begin);
      if (b.sel == nullptr) {
        ops.rand_f64_seq(b.rand_seed, b.row_id_offset + b.range_begin + begin,
                         site, m, units);
      } else {
        for (size_t j = 0; j < m; ++j) {
          units[j] =
              CounterRandomDouble(b.rand_seed, b.RowIdAt(begin + j), site);
        }
      }
      ops.sid_from_unit(units, s.scale, s.base, m, out.data() + begin);
    }
    return OwnedVec(
        Column::FromData(TypeId::kInt64, std::move(out), {}, {}, {}));
  }
  auto av = EvalVec(*s.unit->args[0], b);
  if (!av.ok()) return av.status();
  const Vec& a = av.value();
  if (a.is_const) {
    const double u = a.IsNull(0) ? 0.0 : HashUnit(a.At(0));
    int64_t sid = 0;
    ops.sid_from_unit(&u, s.scale, s.base, 1, &sid);
    std::fill(out.begin(), out.end(), sid);
  } else {
    for (size_t begin = 0; begin < n; begin += kBlock) {
      const size_t m = std::min(kBlock, n - begin);
      HashUnitsInto(a, begin, m, units);
      ops.sid_from_unit(units, s.scale, s.base, m, out.data() + begin);
    }
  }
  std::vector<uint8_t> nulls = RowNulls(a, n);
  ZeroNullSlots(nulls, &out);
  return OwnedVec(Column::FromData(TypeId::kInt64, std::move(out), {}, {},
                                   std::move(nulls)));
}

Result<Vec> EvalArith(const Expr& e, const Batch& b) {
  auto lv = EvalVec(*e.args[0], b);
  if (!lv.ok()) return lv.status();
  auto rv = EvalVec(*e.args[1], b);
  if (!rv.ok()) return rv.status();
  const Vec& l = lv.value();
  const Vec& r = rv.value();
  const size_t n = b.size();
  if (l.mixed || r.mixed) {
    // Per-row types differ: combine through the shared Value-level kernel.
    std::vector<Value> vals;
    vals.reserve(n);
    for (size_t k = 0; k < n; ++k) {
      auto v = ApplyBinaryOp(e.binary_op, l.At(k), r.At(k));
      if (!v.ok()) return v.status();
      vals.push_back(std::move(v).ValueOrDie());
    }
    return VecFromValues(std::move(vals));
  }
  if (l.type() == TypeId::kNull || r.type() == TypeId::kNull) {
    return ConstVec(Value::Null());
  }

  std::vector<uint8_t> nulls;
  auto set_null = [&](size_t k) {
    if (nulls.empty()) nulls.assign(n, 0);
    nulls[k] = 1;
  };

  const bool numeric =
      IsNumericType(l.type()) && IsNumericType(r.type());
  // Null propagation is separated from the value lanes: the dispatch kernels
  // compute every row unconditionally (null slots hold zero placeholders, so
  // the payloads are well-defined and identical at every dispatch level; a
  // null row's payload is never observable through Column), and the byte
  // null masks merge here.
  auto merge_nulls = [&](const uint8_t* an, const uint8_t* bn) {
    if (an == nullptr && bn == nullptr) return;
    nulls.assign(n, 0);
    if (an != nullptr && bn != nullptr) {
      for (size_t k = 0; k < n; ++k) {
        nulls[k] = (an[k] != 0 || bn[k] != 0) ? 1 : 0;
      }
    } else {
      const uint8_t* p = an != nullptr ? an : bn;
      for (size_t k = 0; k < n; ++k) nulls[k] = p[k] != 0 ? 1 : 0;
    }
  };
  switch (e.binary_op) {
    case BinaryOp::kAdd:
    case BinaryOp::kSub:
    case BinaryOp::kMul: {
      const kernels::ArithOp kop =
          e.binary_op == BinaryOp::kAdd
              ? kernels::ArithOp::kAdd
              : (e.binary_op == BinaryOp::kSub ? kernels::ArithOp::kSub
                                               : kernels::ArithOp::kMul);
      const kernels::KernelOps& ops = kernels::Ops();
      if (l.type() == TypeId::kInt64 && r.type() == TypeId::kInt64) {
        IntView a = ResolveInt(l), c = ResolveInt(r);
        std::vector<int64_t> out(n, 0);
        if (!a.is_const && !c.is_const) {
          ops.arith_i64_vv(kop, a.data, c.data, n, out.data());
        } else if (!a.is_const) {
          ops.arith_i64_vc(kop, a.data, c.cval, n, out.data());
        } else if (!c.is_const) {
          ops.arith_i64_cv(kop, a.cval, c.data, n, out.data());
        } else if (n > 0) {
          int64_t cc = 0;
          ops.arith_i64_vc(kop, &a.cval, c.cval, 1, &cc);
          std::fill(out.begin(), out.end(), cc);
        }
        merge_nulls(a.nulls, c.nulls);
        Vec v;
        v.owned = Column::FromData(TypeId::kInt64, std::move(out), {}, {},
                                   std::move(nulls));
        return v;
      }
      if (numeric) {
        NumView a = ResolveNum(l, n), c = ResolveNum(r, n);
        std::vector<double> out(n, 0.0);
        if (!a.is_const && !c.is_const) {
          ops.arith_f64_vv(kop, a.data, c.data, n, out.data());
        } else if (!a.is_const) {
          ops.arith_f64_vc(kop, a.data, c.cval, n, out.data());
        } else if (!c.is_const) {
          ops.arith_f64_cv(kop, a.cval, c.data, n, out.data());
        } else if (n > 0) {
          double cc = 0.0;
          ops.arith_f64_vc(kop, &a.cval, c.cval, 1, &cc);
          std::fill(out.begin(), out.end(), cc);
        }
        merge_nulls(a.nulls, c.nulls);
        Vec v;
        v.owned = Column::FromData(TypeId::kDouble, {}, std::move(out), {},
                                   std::move(nulls));
        return v;
      }
      // String operands read 0 through Num, like Value::AsDouble.
      std::vector<double> out(n);
      for (size_t k = 0; k < n; ++k) {
        if (l.IsNull(k) || r.IsNull(k)) {
          set_null(k);
          continue;
        }
        const double a = l.Num(k), c = r.Num(k);
        out[k] = e.binary_op == BinaryOp::kAdd
                     ? a + c
                     : (e.binary_op == BinaryOp::kSub ? a - c : a * c);
      }
      Vec v;
      v.owned = Column::FromData(TypeId::kDouble, {}, std::move(out), {},
                                 std::move(nulls));
      return v;
    }
    case BinaryOp::kDiv: {
      if (numeric) return DivVec(l, r, n);
      // String operands read 0 through Num, like Value::AsDouble.
      std::vector<double> out(n, 0.0);
      for (size_t k = 0; k < n; ++k) {
        const double c = r.Num(k);
        if (l.IsNull(k) || r.IsNull(k) || c == 0.0) {
          set_null(k);
          continue;
        }
        out[k] = l.Num(k) / c;
      }
      return OwnedVec(Column::FromData(TypeId::kDouble, {}, std::move(out),
                                       {}, std::move(nulls)));
    }
    case BinaryOp::kMod:
      return ModVec(l, r, n);
    default:
      return Status::Internal("unhandled binary op");
  }
}

Result<Vec> EvalCase(const Expr& e, const Batch& b) {
  const size_t n = b.size();
  std::vector<TriMask> whens;
  whens.reserve(e.case_whens.size());
  for (const auto& w : e.case_whens) {
    auto t = EvalTri(*w, b);
    if (!t.ok()) return t.status();
    whens.push_back(std::move(t).ValueOrDie());
  }
  std::vector<Vec> thens;
  thens.reserve(e.case_thens.size());
  for (const auto& th : e.case_thens) {
    auto v = EvalVec(*th, b);
    if (!v.ok()) return v.status();
    thens.push_back(std::move(v).ValueOrDie());
  }
  Vec else_vec = ConstVec(Value::Null());
  if (e.case_else) {
    auto v = EvalVec(*e.case_else, b);
    if (!v.ok()) return v.status();
    else_vec = std::move(v).ValueOrDie();
  }
  // Pick each row's source branch; VecFromValues keeps a typed column when
  // the branches agree and boxes the raw Values when they don't.
  std::vector<Value> vals;
  vals.reserve(n);
  for (size_t k = 0; k < n; ++k) {
    const Vec* src = &else_vec;
    for (size_t i = 0; i < whens.size(); ++i) {
      if (whens[i].IsTrue(k)) {
        src = &thens[i];
        break;
      }
    }
    vals.push_back(src->At(k));
  }
  return VecFromValues(std::move(vals));
}

Result<TriMask> EvalTri(const Expr& e, const Batch& b) {
  const size_t n = b.size();
  switch (e.kind) {
    case ExprKind::kBinary: {
      if (e.binary_op == BinaryOp::kAnd) {
        // Selection-aware conjunction: a false left operand decides the row,
        // so the right operand only needs the rows where the left came out
        // true or unknown — like the row interpreter's short-circuit, but
        // batch-at-a-time over a sub-selection. Evaluating the sub-batch
        // costs a gather per column reference, so it pays off only when the
        // left side is selective; above the cutover the contiguous
        // whole-batch lanes win and the extra rows are simply masked out.
        auto lt = EvalTri(*e.args[0], b);
        if (!lt.ok()) return lt.status();
        TriMask& l = lt.value();
        const size_t surviving = l.CountNotFalse();
        if (surviving == 0) return std::move(l);  // all false
        if (surviving * 4 > n) {
          auto rt = EvalTri(*e.args[1], b);
          if (!rt.ok()) return rt.status();
          const TriMask& r = rt.value();
          // Word-wise Kleene AND: t = lt & rt; false when either side is
          // known-false; known = t | false.
          for (size_t w = 0; w < l.truth.num_words(); ++w) {
            const uint64_t false_l = l.known.word(w) & ~l.truth.word(w);
            const uint64_t false_r = r.known.word(w) & ~r.truth.word(w);
            const uint64_t t = l.truth.word(w) & r.truth.word(w);
            l.truth.words()[w] = t;
            l.known.words()[w] = t | false_l | false_r;
          }
          return std::move(l);
        }
        SelVector survivors;
        survivors.reserve(surviving);
        for (size_t w = 0; w < l.truth.num_words(); ++w) {
          uint64_t nf = l.NotFalseWord(w);
          while (nf != 0) {
            const size_t k = w * 64 +
                             static_cast<size_t>(__builtin_ctzll(nf));
            survivors.push_back(b.RowAt(k));
            nf &= nf - 1;
          }
        }
        Batch sub{b.table,          &survivors, b.rand_seed, 0,
                  Batch::kWholeTable, b.row_id_offset};
        auto rt = EvalTri(*e.args[1], sub);
        if (!rt.ok()) return rt.status();
        const TriMask& r = rt.value();
        // Merge the sub-batch verdicts back onto the surviving positions:
        // r false decides the row false (NULL AND FALSE = FALSE); r NULL
        // erases the row's knowledge; r true keeps the left verdict.
        size_t i = 0;
        for (size_t w = 0; w < l.truth.num_words(); ++w) {
          uint64_t nf = l.NotFalseWord(w);
          while (nf != 0) {
            const size_t k = w * 64 +
                             static_cast<size_t>(__builtin_ctzll(nf));
            if (!r.IsTrue(i)) {
              l.truth.Clear(k);
              if (r.IsKnown(i)) {
                l.known.Set(k);  // known false
              } else {
                l.known.Clear(k);  // NULL (unless left was false — excluded)
              }
            }
            ++i;
            nf &= nf - 1;
          }
        }
        return std::move(l);
      }
      if (e.binary_op == BinaryOp::kOr) {
        // Kleene logic over full child masks; data-dependent NULLs
        // (div-by-zero etc.) are values, not errors, so results agree with
        // the short-circuiting row interpreter.
        auto lt = EvalTri(*e.args[0], b);
        if (!lt.ok()) return lt.status();
        auto rt = EvalTri(*e.args[1], b);
        if (!rt.ok()) return rt.status();
        TriMask& l = lt.value();
        const TriMask& r = rt.value();
        // t = lt | rt; false only when both sides are known-false.
        for (size_t w = 0; w < l.truth.num_words(); ++w) {
          const uint64_t false_l = l.known.word(w) & ~l.truth.word(w);
          const uint64_t false_r = r.known.word(w) & ~r.truth.word(w);
          const uint64_t t = l.truth.word(w) | r.truth.word(w);
          l.truth.words()[w] = t;
          l.known.words()[w] = t | (false_l & false_r);
        }
        return std::move(l);
      }
      if (e.binary_op == BinaryOp::kLike) {
        auto lv = EvalVec(*e.args[0], b);
        if (!lv.ok()) return lv.status();
        auto rv = EvalVec(*e.args[1], b);
        if (!rv.ok()) return rv.status();
        return LikeVecs(lv.value(), rv.value(), n);
      }
      if (e.binary_op == BinaryOp::kEq || e.binary_op == BinaryOp::kNe ||
          e.binary_op == BinaryOp::kLt || e.binary_op == BinaryOp::kLe ||
          e.binary_op == BinaryOp::kGt || e.binary_op == BinaryOp::kGe) {
        auto lv = EvalVec(*e.args[0], b);
        if (!lv.ok()) return lv.status();
        auto rv = EvalVec(*e.args[1], b);
        if (!rv.ok()) return rv.status();
        return CompareVecs(e.binary_op, lv.value(), rv.value(), n);
      }
      break;  // arithmetic: generic path below
    }
    case ExprKind::kUnary: {
      if (e.unary_op == UnaryOp::kNot) {
        auto t = EvalTri(*e.args[0], b);
        if (!t.ok()) return t.status();
        TriMask& v = t.value();
        // NOT flips truth within the known rows; NULL stays NULL. known's
        // zeroed tail keeps the masked complement's tail zeroed too.
        for (size_t w = 0; w < v.truth.num_words(); ++w) {
          v.truth.words()[w] = v.known.word(w) & ~v.truth.word(w);
        }
        return std::move(v);
      }
      break;
    }
    case ExprKind::kIsNull: {
      auto v = EvalVec(*e.args[0], b);
      if (!v.ok()) return v.status();
      const Vec& a = v.value();
      TriMask t;
      t.known.ResetOnes(n);  // IS [NOT] NULL is never NULL itself
      t.truth.ResetForOverwrite(n);
      if (a.is_const) {
        if (a.IsNull(0)) {
          t.truth.ResetOnes(n);
        } else {
          t.truth.ResetZero(n);
        }
      } else if (!a.mixed) {
        const uint8_t* nulls = a.col().NullData();
        if (nulls == nullptr) {
          t.truth.ResetZero(n);
        } else {
          kernels::Ops().bytes_nonzero_bits(nulls + a.offset, n,
                                            t.truth.words());
        }
      } else {
        t.truth.ResetZero(n);
        for (size_t k = 0; k < n; ++k) {
          if (a.IsNull(k)) t.truth.Set(k);
        }
      }
      if (e.negated) {
        for (size_t w = 0; w < t.truth.num_words(); ++w) {
          t.truth.words()[w] = ~t.truth.word(w);
        }
        t.truth.ClearTail();
      }
      return t;
    }
    case ExprKind::kBetween: {
      auto xv = EvalVec(*e.args[0], b);
      if (!xv.ok()) return xv.status();
      auto lov = EvalVec(*e.args[1], b);
      if (!lov.ok()) return lov.status();
      auto hiv = EvalVec(*e.args[2], b);
      if (!hiv.ok()) return hiv.status();
      const Vec& x = xv.value();
      const Vec& lo = lov.value();
      const Vec& hi = hiv.value();
      TriMask t;
      t.ResetNull(n);
      for (size_t k = 0; k < n; ++k) {
        if (x.IsNull(k) || lo.IsNull(k) || hi.IsNull(k)) continue;
        const bool in = CmpAt(x, lo, k) >= 0 && CmpAt(x, hi, k) <= 0;
        if (e.negated ? !in : in) {
          t.SetTrue(k);
        } else {
          t.SetFalse(k);
        }
      }
      return t;
    }
    case ExprKind::kInList: {
      auto xv = EvalVec(*e.args[0], b);
      if (!xv.ok()) return xv.status();
      std::vector<Vec> items;
      items.reserve(e.args.size() - 1);
      for (size_t i = 1; i < e.args.size(); ++i) {
        auto iv = EvalVec(*e.args[i], b);
        if (!iv.ok()) return iv.status();
        items.push_back(std::move(iv).ValueOrDie());
      }
      const Vec& x = xv.value();
      TriMask t;
      t.ResetNull(n);
      for (size_t k = 0; k < n; ++k) {
        if (x.IsNull(k)) continue;
        bool hit = false, any_null = false;
        for (const Vec& item : items) {
          if (item.IsNull(k)) {
            any_null = true;
            continue;
          }
          if (CmpAt(x, item, k) == 0) {
            hit = true;
            break;
          }
        }
        const int8_t tri =
            hit ? (e.negated ? 0 : 1)
                : (any_null ? int8_t{-1} : (e.negated ? int8_t{1} : int8_t{0}));
        t.SetTri(k, tri);
      }
      return t;
    }
    default:
      break;
  }
  auto v = EvalVec(e, b);
  if (!v.ok()) return v.status();
  return VecToTri(v.value(), n);
}

Result<Vec> EvalVec(const Expr& e, const Batch& b) {
  const size_t n = b.size();
  switch (e.kind) {
    case ExprKind::kLiteral:
      return ConstVec(e.literal);
    case ExprKind::kColumnRef:
      return ColumnRefVec(e, b);
    case ExprKind::kStar:
      return Status::Internal("'*' outside count(*) / select list");
    case ExprKind::kUnary: {
      if (e.unary_op == UnaryOp::kNot) {
        auto t = EvalTri(e, b);
        if (!t.ok()) return t.status();
        return TriToVec(t.value());
      }
      auto av = EvalVec(*e.args[0], b);
      if (!av.ok()) return av.status();
      const Vec& a = av.value();
      if (a.mixed) {
        std::vector<Value> vals;
        vals.reserve(n);
        for (size_t k = 0; k < n; ++k) vals.push_back(NegateValue(a.At(k)));
        return VecFromValues(std::move(vals));
      }
      if (a.type() == TypeId::kNull) return ConstVec(Value::Null());
      std::vector<uint8_t> nulls;
      auto set_null = [&](size_t k) {
        if (nulls.empty()) nulls.assign(n, 0);
        nulls[k] = 1;
      };
      if (a.type() == TypeId::kInt64) {
        std::vector<int64_t> out(n);
        for (size_t k = 0; k < n; ++k) {
          if (a.IsNull(k)) {
            set_null(k);
            continue;
          }
          // Unsigned negation: defined wrap on INT64_MIN (see NegateValue).
          out[k] = static_cast<int64_t>(0ull - static_cast<uint64_t>(a.IntRaw(k)));
        }
        Vec v;
        v.owned = Column::FromData(TypeId::kInt64, std::move(out), {}, {},
                                   std::move(nulls));
        return v;
      }
      std::vector<double> out(n);
      for (size_t k = 0; k < n; ++k) {
        if (a.IsNull(k)) {
          set_null(k);
          continue;
        }
        out[k] = -a.Num(k);
      }
      Vec v;
      v.owned = Column::FromData(TypeId::kDouble, {}, std::move(out), {},
                                 std::move(nulls));
      return v;
    }
    case ExprKind::kBinary: {
      switch (e.binary_op) {
        case BinaryOp::kAdd: {
          SidShape sid;
          if (MatchSid(e, &sid)) return EvalSid(sid, b);
          return EvalArith(e, b);
        }
        case BinaryOp::kSub:
        case BinaryOp::kMul:
        case BinaryOp::kDiv:
        case BinaryOp::kMod:
          return EvalArith(e, b);
        default: {
          auto t = EvalTri(e, b);
          if (!t.ok()) return t.status();
          return TriToVec(t.value());
        }
      }
    }
    case ExprKind::kFunction: {
      if (e.is_window || IsAggregateFunction(e.name)) {
        return Status::Internal("aggregate/window '" + e.name +
                                "' in row context");
      }
      // rand-family batch kernels (the variational-subsampling hot path:
      // __vdb_sid assignment and Bernoulli predicates). Each lane value is
      // the row-addressed draw CounterRandom(seed, row id, call site) — a
      // pure function of row identity, so the kernel, the row fallback, and
      // every morsel decomposition agree bit for bit.
      if (sql::IsRandFunctionExpr(e) && e.args.empty()) {
        const uint64_t site = static_cast<uint64_t>(e.rand_site);
        // Range batches draw for consecutive row ids, which is exactly the
        // shape the SIMD rand lane covers (4 CounterRandom draws per
        // vector); selection batches address scattered ids row by row. Both
        // produce the identical row-addressed draws.
        const bool contiguous = b.sel == nullptr;
        const uint64_t row0 =
            contiguous ? b.row_id_offset + b.range_begin : 0;
        std::vector<double> uniforms(n);
        if (contiguous) {
          kernels::Ops().rand_f64_seq(b.rand_seed, row0, site, n,
                                      uniforms.data());
        } else {
          for (size_t k = 0; k < n; ++k) {
            uniforms[k] = CounterRandomDouble(b.rand_seed, b.RowIdAt(k), site);
          }
        }
        if (e.name == "rand_poisson") {
          std::vector<int64_t> out(n);
          for (size_t k = 0; k < n; ++k) {
            out[k] = PoissonOneFromUniform(uniforms[k]);
          }
          Vec v;
          v.owned =
              Column::FromData(TypeId::kInt64, std::move(out), {}, {}, {});
          return v;
        }
        Vec v;
        v.owned = Column::FromData(TypeId::kDouble, {}, std::move(uniforms),
                                   {}, {});
        return v;
      }
      // Unary numeric math (floor/ceil/abs/sqrt) over typed lanes from the
      // kernel layer. String/mixed operands fall through to the row
      // interpreter's Value semantics below.
      if (e.args.size() == 1 &&
          (e.name == "floor" || e.name == "ceil" || e.name == "ceiling" ||
           e.name == "abs" || e.name == "sqrt")) {
        auto av = EvalVec(*e.args[0], b);
        if (!av.ok()) return av.status();
        const Vec& a = av.value();
        if (!a.mixed && a.type() != TypeId::kString) {
          return UnaryMathVec(e.name, a, n);
        }
      }
      // Universe-sample membership hash (the Fig. 11 hot path, hashed-sample
      // builds and appends): the kernel layer's HashUnit lanes over the
      // evaluated argument.
      if ((e.name == "verdict_hash" || e.name == "unit_hash") &&
          e.args.size() == 1) {
        auto av = EvalVec(*e.args[0], b);
        if (!av.ok()) return av.status();
        const Vec& a = av.value();
        std::vector<double> out(n, 0.0);
        if (!a.is_const) {
          HashUnitsInto(a, 0, n, out.data());
        } else if (!a.IsNull(0)) {
          std::fill(out.begin(), out.end(), HashUnit(a.At(0)));
        }
        std::vector<uint8_t> nulls = RowNulls(a, n);
        ZeroNullSlots(nulls, &out);
        return OwnedVec(Column::FromData(TypeId::kDouble, {}, std::move(out),
                                         {}, std::move(nulls)));
      }
      // concat (the multi-column NDV probe's count(distinct concat(a, '|',
      // b))): one string assembled per lane from the evaluated arguments,
      // NULL when any argument is NULL, as in the row interpreter. Values
      // render through Value::ToString; string lanes append in place and
      // constants render once. An empty batch takes the fallback, whose
      // result type (NULL) the output boundary expects.
      if (e.name == "concat" && n > 0) {
        std::vector<std::string> out(n);
        std::vector<uint8_t> nulls;
        for (const auto& arg : e.args) {
          auto av = EvalVec(*arg, b);
          if (!av.ok()) return av.status();
          const Vec& a = av.value();
          if (a.is_const) {
            if (a.IsNull(0)) return ConstVec(Value::Null());
            const std::string s = a.At(0).ToString();
            for (size_t k = 0; k < n; ++k) out[k] += s;
            continue;
          }
          const bool strings = !a.mixed && a.type() == TypeId::kString;
          for (size_t k = 0; k < n; ++k) {
            if (a.IsNull(k)) {
              if (nulls.empty()) nulls.assign(n, 0);
              nulls[k] = 1;
            } else if (strings) {
              out[k] += a.col().GetString(a.pos(k));
            } else {
              out[k] += a.At(k).ToString();
            }
          }
        }
        // All-NULL lanes type as NULL, like the fallback's result.
        if (!nulls.empty() &&
            std::find(nulls.begin(), nulls.end(), 0) == nulls.end()) {
          return ConstVec(Value::Null());
        }
        Vec v;
        v.owned = Column::FromData(TypeId::kString, {}, {}, std::move(out),
                                   std::move(nulls));
        return v;
      }
      return RowFallback(e, b);
    }
    case ExprKind::kCase:
      return EvalCase(e, b);
    case ExprKind::kIsNull:
    case ExprKind::kInList:
    case ExprKind::kBetween: {
      auto t = EvalTri(e, b);
      if (!t.ok()) return t.status();
      return TriToVec(t.value());
    }
    case ExprKind::kSubquery:
    case ExprKind::kExists:
      return Status::Internal("unresolved subquery reached the evaluator");
  }
  return Status::Internal("unhandled expression kind");
}

}  // namespace

Batch ViewBatch(const RowView& view, uint64_t rand_seed, size_t begin,
                size_t end) {
  if (!view.has_selection()) {
    return Batch{view.table().get(), nullptr, rand_seed,
                 view.range_begin() + begin, view.range_begin() + end};
  }
  return Batch{view.table().get(), &view.selection(), rand_seed, begin, end};
}

Batch ViewBatch(const RowView& view, uint64_t rand_seed) {
  return ViewBatch(view, rand_seed, 0, view.num_rows());
}

Result<Column> EvalExprBatch(const Expr& e, const Batch& batch) {
  auto rv = EvalVec(e, batch);
  if (!rv.ok()) return rv.status();
  Vec v = std::move(rv).ValueOrDie();
  const size_t n = batch.size();
  if (v.mixed) {
    // Heterogeneous per-row types coerce through Column::Append only here,
    // at the output boundary — the same place the row executor coerced.
    Column col;
    for (size_t k = 0; k < n; ++k) col.Append(v.boxed[k]);
    return col;
  }
  if (v.is_const) {
    // Broadcast the constant to the batch length.
    const Value c = v.At(0);
    switch (c.type()) {
      case TypeId::kNull:
        return Column::FromData(TypeId::kNull, {}, {}, {},
                                std::vector<uint8_t>(n, 1));
      case TypeId::kBool:
      case TypeId::kInt64:
        return Column::FromData(c.type(), std::vector<int64_t>(n, c.AsInt()),
                                {}, {}, {});
      case TypeId::kDouble:
        return Column::FromData(TypeId::kDouble, {},
                                std::vector<double>(n, c.AsDouble()), {}, {});
      case TypeId::kString:
        return Column::FromData(TypeId::kString, {}, {},
                                std::vector<std::string>(n, c.AsString()), {});
    }
    return Status::Internal("unhandled constant type");
  }
  if (v.borrowed != nullptr) {
    if (v.offset == 0 && v.borrowed->size() == n) {
      return *v.borrowed;  // whole-column reference
    }
    // Borrowed row-range slice: materialize only at the output boundary.
    Column out(v.borrowed->type());
    out.AppendRange(*v.borrowed, v.offset, n);
    return out;
  }
  return std::move(v.owned);
}

Status EvalPredicateBatch(const Expr& e, const Batch& batch, SelVector* out) {
  auto t = EvalTri(e, batch);
  if (!t.ok()) return t.status();
  const TriMask& tri = t.value();
  // Survivors are exactly the truth bits: walk set bits word-at-a-time
  // (count-trailing-zeros) instead of testing every row.
  for (size_t w = 0; w < tri.truth.num_words(); ++w) {
    uint64_t word = tri.truth.word(w);
    while (word != 0) {
      const size_t k = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
      out->push_back(batch.RowAt(k));
      word &= word - 1;
    }
  }
  return Status::Ok();
}

Status EvalPredicateParallel(const Expr& e, const Table& table,
                             uint64_t rand_seed, int num_threads,
                             SelVector* out, const ExecGuard* guard) {
  const size_t n = table.num_rows();
  if (n > RowView::kMaxRows) {
    // Explicit guard: selection entries are uint32_t, and 0xFFFFFFFF is the
    // join null-extension sentinel; silently truncated indices would alias
    // low rows.
    return Status::Unsupported(
        "selection vectors address at most 2^32 - 2 rows; input has " +
        std::to_string(n));
  }
  const size_t morsel = MorselRows();
  if (num_threads <= 1 || n <= morsel) {
    VDB_RETURN_IF_ERROR(GuardCheck(guard, "pred_scan"));
    Batch batch{&table, nullptr, rand_seed};
    return EvalPredicateBatch(e, batch, out);
  }
  auto slots = ParallelMorselMapStatus<SelVector>(
      n, num_threads, guard, "pred_scan",
      [&](SelVector& sel, size_t begin, size_t end) {
        // rand-family draws are row-addressed, so every morsel addresses the
        // same (seed, row, site) triples the serial batch would.
        Batch batch{&table, nullptr, rand_seed, begin, end};
        return EvalPredicateBatch(e, batch, &sel);
      });
  if (!slots.ok()) return slots.status();
  size_t total = 0;
  for (const SelVector& sel : slots.value()) total += sel.size();
  out->reserve(out->size() + total);
  for (const SelVector& sel : slots.value()) {
    out->insert(out->end(), sel.begin(), sel.end());
  }
  return Status::Ok();
}

Result<TablePtr> FilterGatherParallel(const Expr& pred, const Table& table,
                                      uint64_t rand_seed, int num_threads,
                                      const ExecGuard* guard) {
  const size_t n = table.num_rows();
  if (n > RowView::kMaxRows) {
    return Status::Unsupported(
        "selection vectors address at most 2^32 - 2 rows; input has " +
        std::to_string(n));
  }
  auto out = table.CloneSchema();
  // The gathered output is row-proportional (survivor count x the parent's
  // per-row footprint); charge it against the budget once the survivor count
  // is known, before materializing. The charge persists with the output
  // table (freed by the statement issuer's accounting reset).
  const uint64_t per_row =
      n > 0 ? static_cast<uint64_t>(table.ApproxBytes()) / n : 0;
  if (num_threads <= 1 || n <= MorselRows()) {
    VDB_RETURN_IF_ERROR(GuardCheck(guard, "filter_gather"));
    Batch batch{&table, nullptr, rand_seed};
    SelVector sel;
    VDB_RETURN_IF_ERROR(EvalPredicateBatch(pred, batch, &sel));
    VDB_RETURN_IF_ERROR(GuardTryReserve(guard, per_row * sel.size(),
                                        "filter_gather_alloc"));
    out->AppendSelected(table, sel, num_threads);
    return out;
  }
  auto slots = ParallelMorselMapStatus<TablePtr>(
      n, num_threads, guard, "filter_gather",
      [&](TablePtr& chunk, size_t begin, size_t end) {
        // Filter the morsel, then gather its survivors immediately — the
        // selection stays worker-local and the morsel's columns are still
        // hot. rand-family draws are row-addressed, so each morsel sees the
        // identical (seed, row, site) triples the serial batch would.
        Batch batch{&table, nullptr, rand_seed, begin, end};
        SelVector sel;
        VDB_RETURN_IF_ERROR(EvalPredicateBatch(pred, batch, &sel));
        VDB_RETURN_IF_ERROR(GuardTryReserve(guard, per_row * sel.size(),
                                            "filter_gather_alloc"));
        chunk = table.CloneSchema();
        chunk->AppendSelected(table, sel, /*num_threads=*/1);
        return Status::Ok();
      });
  if (!slots.ok()) return slots.status();
  for (const TablePtr& chunk : slots.value()) {
    out->AppendRange(*chunk, 0, chunk->num_rows());
  }
  return out;
}

Status EvalPredicateView(const Expr& e, const RowView& view,
                         uint64_t rand_seed, int num_threads, SelVector* out,
                         const ExecGuard* guard) {
  const size_t n = view.num_rows();
  if (num_threads <= 1 || n <= MorselRows()) {
    VDB_RETURN_IF_ERROR(GuardCheck(guard, "pred_view"));
    Batch batch = ViewBatch(view, rand_seed);
    return EvalPredicateBatch(e, batch, out);
  }
  auto slots = ParallelMorselMapStatus<SelVector>(
      n, num_threads, guard, "pred_view",
      [&](SelVector& sel, size_t begin, size_t end) {
        Batch batch = ViewBatch(view, rand_seed, begin, end);
        return EvalPredicateBatch(e, batch, &sel);
      });
  if (!slots.ok()) return slots.status();
  size_t total = 0;
  for (const SelVector& sel : slots.value()) total += sel.size();
  out->reserve(out->size() + total);
  for (const SelVector& sel : slots.value()) {
    out->insert(out->end(), sel.begin(), sel.end());
  }
  return Status::Ok();
}

Status EvalPredicateBitmap(const Expr& e, const RowView& view,
                           uint64_t rand_seed, int num_threads,
                           kernels::Bitmap* out, const ExecGuard* guard) {
  const size_t n = view.num_rows();
  out->ResetZero(n);
  // Morsels rounded up to whole 64-bit words: each worker then owns a
  // disjoint word range of the output bitmap, so per-morsel truth words copy
  // straight in with no cross-morsel bit splicing. The decomposition still
  // depends only on n, and the truth CONTENT is per-row pure, so any morsel
  // size produces the identical bitmap.
  const size_t wmorsel = (MorselRows() + 63) / 64 * 64;
  if (num_threads <= 1 || n <= wmorsel) {
    VDB_RETURN_IF_ERROR(GuardCheck(guard, "pred_bitmap"));
    Batch batch = ViewBatch(view, rand_seed);
    auto t = EvalTri(e, batch);
    if (!t.ok()) return t.status();
    const kernels::Bitmap& truth = t.value().truth;
    for (size_t w = 0; w < truth.num_words(); ++w) {
      out->words()[w] = truth.word(w);
    }
    return Status::Ok();
  }
  return ThreadPool::Global().ParallelForStatus(
      n, wmorsel, num_threads, guard, "pred_bitmap",
      [&](size_t, size_t begin, size_t end) {
        Batch batch = ViewBatch(view, rand_seed, begin, end);
        auto t = EvalTri(e, batch);
        if (!t.ok()) return t.status();
        const kernels::Bitmap& truth = t.value().truth;
        uint64_t* dst = out->words() + begin / 64;
        for (size_t w = 0; w < truth.num_words(); ++w) dst[w] = truth.word(w);
        return Status::Ok();
      });
}

Result<Column> EvalExprView(const Expr& e, const RowView& view,
                            uint64_t rand_seed, int num_threads,
                            const ExecGuard* guard) {
  const size_t n = view.num_rows();
  if (num_threads <= 1 || n <= MorselRows()) {
    // One whole-view batch. This also serves the empty view: the evaluator
    // still walks the tree, so the output column keeps its natural type and
    // empty results stay schema-complete.
    VDB_RETURN_IF_ERROR(GuardCheck(guard, "expr_view"));
    Batch batch = ViewBatch(view, rand_seed);
    return EvalExprBatch(e, batch);
  }
  auto slots = ParallelMorselMapStatus<Column>(
      n, num_threads, guard, "expr_view",
      [&](Column& col, size_t begin, size_t end) {
        Batch batch = ViewBatch(view, rand_seed, begin, end);
        auto c = EvalExprBatch(e, batch);
        if (!c.ok()) return c.status();
        col = std::move(c).ValueOrDie();
        return Status::Ok();
      });
  if (!slots.ok()) return slots.status();
  std::vector<Column> chunks = std::move(slots).ValueOrDie();
  return Column::ConcatChunks(std::move(chunks));
}

// ---- pair-list predicate evaluation -----------------------------------------

Result<const kernels::Bitmap*> PairPredicateEvaluator::Eval(
    const sql::Expr& pred, const uint32_t* lrows, const uint32_t* rrows,
    size_t count, uint64_t row_id_base) {
  // One poll per 64K-pair chunk — the streaming residual path's batch
  // boundary (never per pair).
  VDB_RETURN_IF_ERROR(GuardCheck(guard_, "join_pair_eval"));
  if (mask_pred_ != &pred) {
    // Gather only the combined-schema ordinals the predicate references;
    // streaming callers reuse one predicate, so this walk runs once.
    mask_pred_ = &pred;
    col_mask_.assign(left_.num_columns() + right_.num_columns(), 0);
    sql::AnyExprNode(pred, [&](const sql::Expr& n) {
      if (n.kind == sql::ExprKind::kColumnRef && n.bound_column >= 0 &&
          static_cast<size_t>(n.bound_column) < col_mask_.size()) {
        col_mask_[static_cast<size_t>(n.bound_column)] = 1;
      }
      return false;
    });
  }
  GatherJoinPairsInto(left_, lrows, right_, rrows, count, num_threads_,
                      &scratch_, &col_mask_);
  // Scratch rows are chunk-local; row_id_base lifts them onto the global
  // pair ordinal so rand-family draws are invariant to the chunking.
  Batch batch{&scratch_,          nullptr, rand_seed_, 0,
              Batch::kWholeTable, row_id_base};
  // The scratch batch has no selection, so batch position i IS pair i: the
  // evaluator's truth bitmap is the pass mask directly — no survivor list,
  // no per-chunk byte-mask re-zeroing (the evaluator overwrites every word).
  auto t = EvalTri(pred, batch);
  if (!t.ok()) return t.status();
  pass_ = std::move(t.value().truth);
  return const_cast<const kernels::Bitmap*>(&pass_);
}

Status FilterJoinPairs(const sql::Expr& pred, JoinPairView* pairs,
                       uint64_t rand_seed, int num_threads,
                       const ExecGuard* guard) {
  constexpr size_t kChunk = 1 << 16;
  const size_t n = pairs->num_pairs();
  PairPredicateEvaluator eval(*pairs->left(), *pairs->right(), rand_seed,
                              num_threads, guard);
  // Survivors stream straight into fresh pair lists (never positions into
  // the old list, which could exceed the uint32 index range). `begin` is the
  // global pair ordinal — the row this pair would occupy in the materialized
  // join — so pushed-down rand() draws match the post-gather WHERE path.
  SelVector out_l, out_r;
  for (size_t begin = 0; begin < n; begin += kChunk) {
    const size_t end = std::min(n, begin + kChunk);
    auto mask = eval.Eval(pred, pairs->lrows().data() + begin,
                          pairs->rrows().data() + begin, end - begin, begin);
    if (!mask.ok()) return mask.status();
    const kernels::Bitmap& pass = *mask.value();
    for (size_t w = 0; w < pass.num_words(); ++w) {
      uint64_t word = pass.word(w);
      while (word != 0) {
        const size_t i = w * 64 + static_cast<size_t>(__builtin_ctzll(word));
        out_l.push_back(pairs->lrows()[begin + i]);
        out_r.push_back(pairs->rrows()[begin + i]);
        word &= word - 1;
      }
    }
  }
  *pairs = JoinPairView(pairs->left(), pairs->right(), std::move(out_l),
                        std::move(out_r));
  return Status::Ok();
}

}  // namespace vdb::engine
