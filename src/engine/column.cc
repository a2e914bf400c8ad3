#include "engine/column.h"

#include <cassert>

#include "engine/kernels/kernels.h"

namespace vdb::engine {

void Column::EnsureNullMask() {
  if (nulls_.empty()) nulls_.assign(size_, 0);
}

void Column::PromoteToDouble() {
  doubles_.reserve(ints_.size());
  for (int64_t v : ints_) doubles_.push_back(static_cast<double>(v));
  ints_.clear();
  ints_.shrink_to_fit();
  type_ = TypeId::kDouble;
}

void Column::Reserve(size_t n) {
  switch (type_) {
    case TypeId::kNull: break;
    case TypeId::kBool:
    case TypeId::kInt64: ints_.reserve(n); break;
    case TypeId::kDouble: doubles_.reserve(n); break;
    case TypeId::kString: strings_.reserve(n); break;
  }
}

void Column::Clear() {
  size_ = 0;
  ints_.clear();
  doubles_.clear();
  strings_.clear();
  nulls_.clear();
}

void Column::AppendNull() {
  EnsureNullMask();
  nulls_.push_back(1);
  switch (type_) {
    case TypeId::kNull: break;
    case TypeId::kBool:
    case TypeId::kInt64: ints_.push_back(0); break;
    case TypeId::kDouble: doubles_.push_back(0.0); break;
    case TypeId::kString: strings_.emplace_back(); break;
  }
  ++size_;
}

void Column::AppendInt(int64_t v) {
  if (type_ == TypeId::kNull) {
    // Backfill the slots taken by earlier NULL appends.
    type_ = TypeId::kInt64;
    ints_.assign(size_, 0);
  }
  if (!nulls_.empty()) nulls_.push_back(0);
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64: ints_.push_back(v); break;
    case TypeId::kDouble: doubles_.push_back(static_cast<double>(v)); break;
    case TypeId::kString:
      strings_.emplace_back();
      if (nulls_.empty()) nulls_.assign(size_, 0), nulls_.push_back(1);
      else nulls_.back() = 1;
      break;
    case TypeId::kNull: break;
  }
  ++size_;
}

void Column::AppendDouble(double v) {
  if (type_ == TypeId::kNull) {
    type_ = TypeId::kDouble;
    doubles_.assign(size_, 0.0);
  } else if (type_ == TypeId::kInt64 || type_ == TypeId::kBool) {
    PromoteToDouble();
  }
  if (!nulls_.empty()) nulls_.push_back(0);
  switch (type_) {
    case TypeId::kDouble: doubles_.push_back(v); break;
    case TypeId::kString:
      strings_.emplace_back();
      if (nulls_.empty()) nulls_.assign(size_, 0), nulls_.push_back(1);
      else nulls_.back() = 1;
      break;
    default: break;
  }
  ++size_;
}

void Column::AppendString(std::string v) {
  if (type_ == TypeId::kNull) {
    type_ = TypeId::kString;
    strings_.assign(size_, std::string());
  }
  if (!nulls_.empty()) nulls_.push_back(0);
  if (type_ == TypeId::kString) {
    strings_.push_back(std::move(v));
  } else {
    // Type clash: store NULL.
    switch (type_) {
      case TypeId::kBool:
      case TypeId::kInt64: ints_.push_back(0); break;
      case TypeId::kDouble: doubles_.push_back(0.0); break;
      default: break;
    }
    if (nulls_.empty()) nulls_.assign(size_, 0), nulls_.push_back(1);
    else nulls_.back() = 1;
  }
  ++size_;
}

void Column::Append(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull: AppendNull(); break;
    case TypeId::kBool:
    case TypeId::kInt64: AppendInt(v.AsInt()); break;
    case TypeId::kDouble: AppendDouble(v.AsDouble()); break;
    case TypeId::kString: AppendString(v.AsString()); break;
  }
}

Value Column::Get(size_t row) const {
  if (IsNull(row)) return Value::Null();
  switch (type_) {
    case TypeId::kNull: return Value::Null();
    case TypeId::kBool: return Value::Bool(ints_[row] != 0);
    case TypeId::kInt64: return Value::Int(ints_[row]);
    case TypeId::kDouble: return Value::Double(doubles_[row]);
    case TypeId::kString: return Value::String(strings_[row]);
  }
  return Value::Null();
}

void Column::AppendRange(const Column& src, size_t start, size_t count) {
  if (count == 0) return;
  // Adopt the source type wholesale when this column is still untyped and
  // empty; otherwise bulk-copy only applies to exactly matching types.
  if (type_ == TypeId::kNull && size_ == 0 && src.type_ != TypeId::kNull) {
    type_ = src.type_;
  }
  const bool bulk = type_ == src.type_;
  if (!bulk) {
    for (size_t i = 0; i < count; ++i) Append(src.Get(start + i));
    return;
  }
  const auto off = static_cast<std::ptrdiff_t>(start);
  const auto cnt = static_cast<std::ptrdiff_t>(count);
  switch (type_) {
    case TypeId::kNull: break;
    case TypeId::kBool:
    case TypeId::kInt64:
      ints_.insert(ints_.end(), src.ints_.begin() + off,
                   src.ints_.begin() + off + cnt);
      break;
    case TypeId::kDouble:
      doubles_.insert(doubles_.end(), src.doubles_.begin() + off,
                      src.doubles_.begin() + off + cnt);
      break;
    case TypeId::kString:
      strings_.insert(strings_.end(), src.strings_.begin() + off,
                      src.strings_.begin() + off + cnt);
      break;
  }
  const bool src_has_nulls =
      src.type_ == TypeId::kNull || !src.nulls_.empty();
  if (src_has_nulls || !nulls_.empty()) {
    EnsureNullMask();  // backfills zeros for the rows already present
    if (src.nulls_.empty()) {
      nulls_.insert(nulls_.end(), count, src.type_ == TypeId::kNull ? 1 : 0);
    } else {
      nulls_.insert(nulls_.end(), src.nulls_.begin() + off,
                    src.nulls_.begin() + off + cnt);
    }
  }
  size_ += count;
}

void Column::AppendSelected(const Column& src, const uint32_t* rows,
                            size_t count) {
  if (count == 0) return;
  if (type_ == TypeId::kNull && size_ == 0 && src.type_ != TypeId::kNull) {
    type_ = src.type_;
  }
  const bool bulk = type_ == src.type_;
  if (!bulk) {
    for (size_t i = 0; i < count; ++i) Append(src.Get(rows[i]));
    return;
  }
  switch (type_) {
    case TypeId::kNull: break;
    case TypeId::kBool:
    case TypeId::kInt64: {
      size_t base = ints_.size();
      ints_.resize(base + count);
      kernels::Ops().gather_i64(src.ints_.data(), rows, count,
                                ints_.data() + base);
      break;
    }
    case TypeId::kDouble: {
      size_t base = doubles_.size();
      doubles_.resize(base + count);
      kernels::Ops().gather_f64(src.doubles_.data(), rows, count,
                                doubles_.data() + base);
      break;
    }
    case TypeId::kString: {
      strings_.reserve(strings_.size() + count);
      for (size_t i = 0; i < count; ++i) strings_.push_back(src.strings_[rows[i]]);
      break;
    }
  }
  const bool src_has_nulls =
      src.type_ == TypeId::kNull || !src.nulls_.empty();
  if (src_has_nulls || !nulls_.empty()) {
    EnsureNullMask();  // backfills zeros for the rows already present
    size_t base = nulls_.size();
    nulls_.resize(base + count);
    for (size_t i = 0; i < count; ++i) {
      nulls_[base + i] =
          src.nulls_.empty() ? (src.type_ == TypeId::kNull ? 1 : 0)
                             : src.nulls_[rows[i]];
    }
  }
  size_ += count;
}

void Column::AppendSelectedValues(const Column& src, size_t base,
                                  const uint32_t* rows, size_t count) {
  if (count == 0) return;
  // Get reads a Bool cell as Value::Bool, which Append stores as Int64.
  const TypeId st = src.type_ == TypeId::kBool ? TypeId::kInt64 : src.type_;
  const uint8_t* sn =
      src.nulls_.empty() ? nullptr : src.nulls_.data() + base;
  size_t num_null = st == TypeId::kNull ? count : 0;
  if (st != TypeId::kNull && sn != nullptr) {
    for (size_t i = 0; i < count; ++i) num_null += sn[rows[i]] != 0;
  }
  if (num_null == count) {
    for (size_t i = 0; i < count; ++i) AppendNull();
    return;
  }
  if (type_ == TypeId::kNull) {
    // The first value types the column and backfills placeholders for the
    // NULLs before it, as AppendInt/AppendDouble/AppendString do.
    type_ = st;
    if (st == TypeId::kInt64) ints_.assign(size_, 0);
    if (st == TypeId::kDouble) doubles_.assign(size_, 0.0);
    if (st == TypeId::kString) strings_.assign(size_, std::string());
  }
  if (type_ != st) {
    for (size_t i = 0; i < count; ++i) Append(src.Get(base + rows[i]));
    return;
  }
  // NULL slots get the zero/empty placeholder Append writes for them.
  auto is_null = [&](size_t i) { return sn != nullptr && sn[rows[i]] != 0; };
  switch (type_) {
    case TypeId::kNull:
      break;
    case TypeId::kBool:
    case TypeId::kInt64: {
      const size_t at = ints_.size();
      ints_.resize(at + count);
      kernels::Ops().gather_i64(src.ints_.data() + base, rows, count,
                                ints_.data() + at);
      if (num_null > 0) {
        for (size_t i = 0; i < count; ++i) {
          if (is_null(i)) ints_[at + i] = 0;
        }
      }
      break;
    }
    case TypeId::kDouble: {
      const size_t at = doubles_.size();
      doubles_.resize(at + count);
      kernels::Ops().gather_f64(src.doubles_.data() + base, rows, count,
                                doubles_.data() + at);
      if (num_null > 0) {
        for (size_t i = 0; i < count; ++i) {
          if (is_null(i)) doubles_[at + i] = 0.0;
        }
      }
      break;
    }
    case TypeId::kString:
      strings_.reserve(strings_.size() + count);
      for (size_t i = 0; i < count; ++i) {
        if (is_null(i)) {
          strings_.emplace_back();
        } else {
          strings_.push_back(src.strings_[base + rows[i]]);
        }
      }
      break;
  }
  // Append keeps a mask once any NULL has been appended, and only then.
  if (num_null > 0 || !nulls_.empty()) {
    EnsureNullMask();
    for (size_t i = 0; i < count; ++i) nulls_.push_back(is_null(i) ? 1 : 0);
  }
  size_ += count;
}

Column Column::FromData(TypeId type, std::vector<int64_t> ints,
                        std::vector<double> doubles,
                        std::vector<std::string> strings,
                        std::vector<uint8_t> nulls) {
  Column c(type);
  switch (type) {
    case TypeId::kNull: c.size_ = nulls.size(); break;
    case TypeId::kBool:
    case TypeId::kInt64: c.size_ = ints.size(); break;
    case TypeId::kDouble: c.size_ = doubles.size(); break;
    case TypeId::kString: c.size_ = strings.size(); break;
  }
  assert(nulls.empty() || nulls.size() == c.size_);
  c.ints_ = std::move(ints);
  c.doubles_ = std::move(doubles);
  c.strings_ = std::move(strings);
  c.nulls_ = std::move(nulls);
  return c;
}

Column Column::ConcatChunks(std::vector<Column> chunks) {
  if (chunks.size() == 1) return std::move(chunks[0]);
  // Unify the chunk types. kNull (a chunk whose every value was NULL) is the
  // identity: it concatenates into any type as NULLs.
  TypeId t = TypeId::kNull;
  bool uniform = true;
  size_t total = 0;
  for (const Column& c : chunks) {
    total += c.size();
    if (c.type() == TypeId::kNull) continue;
    if (t == TypeId::kNull) {
      t = c.type();
    } else if (c.type() != t) {
      uniform = false;
    }
  }
  if (uniform) {
    Column out(t);
    out.Reserve(total);
    for (const Column& c : chunks) out.AppendRange(c, 0, c.size());
    return out;
  }
  // Chunk types differ (data-dependent inference, e.g. a CASE whose branches
  // are uniform within one morsel but not another): per-value Append applies
  // the same promotion/coercion sequence the whole-batch boxed path would.
  Column out;
  for (const Column& c : chunks) {
    for (size_t k = 0; k < c.size(); ++k) out.Append(c.Get(k));
  }
  return out;
}

double Column::GetNumeric(size_t row) const {
  if (IsNull(row)) return 0.0;
  switch (type_) {
    case TypeId::kBool:
    case TypeId::kInt64: return static_cast<double>(ints_[row]);
    case TypeId::kDouble: return doubles_[row];
    default: return 0.0;
  }
}

}  // namespace vdb::engine
