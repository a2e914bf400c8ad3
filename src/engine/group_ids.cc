#include "engine/group_ids.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstring>

#include "common/hash.h"
#include "engine/kernels/kernels.h"

namespace vdb::engine {

Status CheckGroupableRows(size_t num_rows) {
  constexpr size_t kMaxRows = 0xFFFFFFFEu;
  if (num_rows > kMaxRows) {
    return Status::Unsupported(
        "group-id assignment addresses at most 2^32 - 2 rows; input has " +
        std::to_string(num_rows));
  }
  return Status::Ok();
}

namespace {

// Distinct tags keep NULL apart from any data hash.
constexpr uint64_t kNullHash = 0x9AE16A3B2F90404Full;
constexpr uint64_t kNanHash = 0xC3A5C85C97CB3127ull;

uint64_t DoubleHash(double d) {
  // Match ValueGroupKey's folding: integral doubles hash like the integer
  // (so 5.0 groups with 5 across differently-typed key columns), NaNs
  // collapse to one class, and -0.0 folds to 0. Equal non-integral doubles
  // share a bit pattern, so hashing the bits is exact.
  if (std::isnan(d)) return kNanHash;
  if (d == std::floor(d) && std::abs(d) < 9.2e18) {
    return HashMix64(static_cast<uint64_t>(static_cast<int64_t>(d)));
  }
  uint64_t bits;
  std::memcpy(&bits, &d, sizeof(bits));
  return HashMix64(bits);
}

/// Raw-storage equality of two rows of the same column, under ValueGroupKey
/// equivalence. Only called for same-hash candidates, so it stays off the
/// hot path.
bool CellsEqual(const Column& c, size_t a, size_t b) {
  const bool an = c.IsNull(a);
  if (an != c.IsNull(b)) return false;
  if (an) return true;
  switch (c.type()) {
    case TypeId::kNull:
      return true;
    case TypeId::kBool:
    case TypeId::kInt64:
      return c.GetInt(a) == c.GetInt(b);
    case TypeId::kDouble: {
      const double x = c.GetDouble(a), y = c.GetDouble(b);
      return x == y || (std::isnan(x) && std::isnan(y));
    }
    case TypeId::kString:
      return c.GetString(a) == c.GetString(b);
  }
  return false;
}

/// Mixes column `col`'s per-row hash for rows [begin, end) into
/// out[0 .. end - begin) — RELATIVE output indexing; callers holding a
/// shared absolute array pass h + begin.
void HashColumnRange(const Column& col, size_t begin, size_t end,
                     uint64_t* out) {
  const size_t n = end - begin;
  const uint8_t* nulls = col.NullData();
  if (nulls != nullptr) nulls += begin;
  switch (col.type()) {
    case TypeId::kNull:
      for (size_t k = 0; k < n; ++k) out[k] = MixGroupHash(out[k], kNullHash);
      return;
    case TypeId::kBool:
    case TypeId::kInt64: {
      // The dispatch kernel vectorizes exactly this lane: per-row HashMix64
      // of the raw value (kNullHash at null rows), combined via MixGroupHash.
      kernels::Ops().hash_mix_i64(out, col.IntData() + begin, nulls, kNullHash,
                                  n);
      return;
    }
    case TypeId::kDouble: {
      const double* data = col.DoubleData() + begin;
      for (size_t k = 0; k < n; ++k) {
        const uint64_t v = (nulls != nullptr && nulls[k] != 0)
                               ? kNullHash
                               : DoubleHash(data[k]);
        out[k] = MixGroupHash(out[k], v);
      }
      return;
    }
    case TypeId::kString: {
      for (size_t k = 0; k < n; ++k) {
        uint64_t v;
        if (nulls != nullptr && nulls[k] != 0) {
          v = kNullHash;
        } else {
          const std::string& s = col.GetString(begin + k);
          v = HashBytes(s.data(), s.size());
        }
        out[k] = MixGroupHash(out[k], v);
      }
      return;
    }
  }
}

// Like agg_table.cc's group-hash mask: written by tests between queries,
// read by workers inside the morsel-parallel join prehash — atomic so the
// handoff is defined. Loaded once per range, never per row.
std::atomic<uint64_t> g_join_key_hash_mask{~0ull};

/// Same-type equality across two columns (both cells non-null).
bool CellsEqual2(const Column& a, size_t ra, const Column& b, size_t rb) {
  switch (a.type()) {
    case TypeId::kNull:
      return true;
    case TypeId::kBool:
    case TypeId::kInt64:
      return a.GetInt(ra) == b.GetInt(rb);
    case TypeId::kDouble: {
      const double x = a.GetDouble(ra), y = b.GetDouble(rb);
      return x == y || (std::isnan(x) && std::isnan(y));
    }
    case TypeId::kString:
      return a.GetString(ra) == b.GetString(rb);
  }
  return false;
}

}  // namespace

bool GroupCellsEqual(const Column& a, size_t ra, const Column& b, size_t rb) {
  const bool an = a.IsNull(ra);
  if (an != b.IsNull(rb)) return false;
  if (an) return true;
  const TypeId at = a.type(), bt = b.type();
  if (at == bt) return CellsEqual2(a, ra, b, rb);
  // Mixed types: only numeric cross-type pairs can be equal (ValueGroupKey
  // gives strings their own tag). Bool cells live in Int64 storage.
  const bool a_int = at == TypeId::kBool || at == TypeId::kInt64;
  const bool b_int = bt == TypeId::kBool || bt == TypeId::kInt64;
  if (a_int && b_int) return a.GetInt(ra) == b.GetInt(rb);
  if (a_int && bt == TypeId::kDouble) {
    const double d = b.GetDouble(rb);
    return d == std::floor(d) && std::abs(d) < 9.2e18 &&
           static_cast<int64_t>(d) == a.GetInt(ra);
  }
  if (b_int && at == TypeId::kDouble) {
    const double d = a.GetDouble(ra);
    return d == std::floor(d) && std::abs(d) < 9.2e18 &&
           static_cast<int64_t>(d) == b.GetInt(rb);
  }
  return false;
}

void HashGroupColumn(const Column& col, size_t num_rows,
                     std::vector<uint64_t>* hashes) {
  HashColumnRange(col, 0, num_rows, hashes->data());
}

void HashGroupColumnRange(const Column& col, size_t begin, size_t end,
                          uint64_t* out) {
  HashColumnRange(col, begin, end, out);
}

bool GroupRowsEqual(const std::vector<const Column*>& cols, size_t a,
                    size_t b) {
  for (const Column* c : cols) {
    if (!CellsEqual(*c, a, b)) return false;
  }
  return true;
}

uint64_t GroupValueHash(const Value& v) {
  switch (v.type()) {
    case TypeId::kNull:
      return kNullHash;
    case TypeId::kBool:
    case TypeId::kInt64:
      return HashMix64(static_cast<uint64_t>(v.AsInt()));
    case TypeId::kDouble:
      return DoubleHash(v.AsDouble());
    case TypeId::kString: {
      const std::string& s = v.AsString();
      return HashBytes(s.data(), s.size());
    }
  }
  return 0;
}

bool GroupValuesEqual(const Value& a, const Value& b) {
  if (a.is_null() != b.is_null()) return false;
  if (a.is_null()) return true;
  const TypeId at = a.type(), bt = b.type();
  const bool a_int = at == TypeId::kBool || at == TypeId::kInt64;
  const bool b_int = bt == TypeId::kBool || bt == TypeId::kInt64;
  if (a_int && b_int) return a.AsInt() == b.AsInt();
  if (at == TypeId::kString || bt == TypeId::kString) {
    return at == bt && a.AsString() == b.AsString();
  }
  if (at == TypeId::kDouble && bt == TypeId::kDouble) {
    const double x = a.AsDouble(), y = b.AsDouble();
    return x == y || (std::isnan(x) && std::isnan(y));
  }
  // Numeric cross-type pair: equal iff the double side is integral and
  // matches the integer side (ValueGroupKey's folding).
  const double d = a_int ? b.AsDouble() : a.AsDouble();
  const int64_t i = a_int ? a.AsInt() : b.AsInt();
  return d == std::floor(d) && std::abs(d) < 9.2e18 &&
         static_cast<int64_t>(d) == i;
}

void HashJoinKeyColumns(const std::vector<const Column*>& keys, size_t begin,
                        size_t end, uint64_t* hashes, uint8_t* any_null) {
  for (size_t r = begin; r < end; ++r) hashes[r] = kGroupHashSeed;
  for (const Column* k : keys) {
    HashColumnRange(*k, begin, end, hashes + begin);
    if (k->type() == TypeId::kNull) {
      for (size_t r = begin; r < end; ++r) any_null[r] = 1;
    } else if (const uint8_t* nulls = k->NullData()) {
      for (size_t r = begin; r < end; ++r) any_null[r] |= nulls[r];
    }
  }
  const uint64_t mask = g_join_key_hash_mask.load(std::memory_order_relaxed);
  if (mask != ~0ull) {
    for (size_t r = begin; r < end; ++r) hashes[r] &= mask;
  }
}

bool JoinKeysEqual(const std::vector<const Column*>& a, size_t arow,
                   const std::vector<const Column*>& b, size_t brow) {
  for (size_t i = 0; i < a.size(); ++i) {
    if (!GroupCellsEqual(*a[i], arow, *b[i], brow)) return false;
  }
  return true;
}

void SetJoinKeyHashMaskForTest(uint64_t mask) {
  g_join_key_hash_mask.store(mask, std::memory_order_relaxed);
}

// AssignGroupIds lives in engine/agg_table.cc: it is the flat GroupTable's
// first client, and keeping it beside the table keeps the probe loop and the
// growth policy in one place.

}  // namespace vdb::engine
