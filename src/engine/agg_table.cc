#include "engine/agg_table.h"

#include <algorithm>
#include <atomic>
#include <cmath>
#include <limits>

namespace vdb::engine {

namespace {
// Test hook read by pool workers during parallel group-id assignment while
// tests write it from the main thread between queries: atomic (relaxed) so
// that handoff is a defined data point, not a formal race. Loaded once per
// hashing call, never per row.
std::atomic<uint64_t> g_group_hash_mask{~0ull};

/// Raw-lane view of one group-key column for the inlined representative-row
/// verification — the same relation as group_ids.cc's CellsEqual (NULLs
/// equal, NaNs equal, typed compares elsewhere) without a per-row
/// out-of-line call. Raw pointers are pre-offset by the column's row base so
/// batch-relative row indices address them directly; only the string path
/// keeps the base (Column::GetString wants absolute rows).
struct KeyLane {
  TypeId type;
  const int64_t* ints = nullptr;
  const double* dbls = nullptr;
  const uint8_t* nulls = nullptr;
  const Column* col = nullptr;  // string compares
  size_t base = 0;              // string compares only
};

std::vector<KeyLane> MakeKeyLanes(const std::vector<KeyCol>& cols) {
  std::vector<KeyLane> lanes;
  lanes.reserve(cols.size());  // vdb-lint: allow(naked-reserve) column-count bounded
  for (const KeyCol& kc : cols) {  // vdb-lint: allow(ungoverned-loop) column-count bounded, not row-proportional
    const Column* c = kc.col;
    KeyLane l;
    l.type = c->type();
    l.nulls = c->NullData();
    if (l.nulls != nullptr) l.nulls += kc.base;
    l.col = c;
    l.base = kc.base;
    if (l.type == TypeId::kBool || l.type == TypeId::kInt64) {
      l.ints = c->IntData() + kc.base;
    } else if (l.type == TypeId::kDouble) {
      l.dbls = c->DoubleData() + kc.base;
    }
    lanes.push_back(l);
  }
  return lanes;
}

inline bool LaneRowsEqual(const KeyLane* lanes, size_t nlanes, uint32_t a,
                          uint32_t b) {
  for (size_t i = 0; i < nlanes; ++i) {
    const KeyLane& l = lanes[i];
    if (l.type == TypeId::kNull) continue;  // every cell NULL: equal
    const bool an = l.nulls != nullptr && l.nulls[a] != 0;
    const bool bn = l.nulls != nullptr && l.nulls[b] != 0;
    if (an != bn) return false;
    if (an) continue;
    switch (l.type) {
      case TypeId::kNull:
        break;
      case TypeId::kBool:
      case TypeId::kInt64:
        if (l.ints[a] != l.ints[b]) return false;
        break;
      case TypeId::kDouble: {
        const double x = l.dbls[a], y = l.dbls[b];
        if (!(x == y || (std::isnan(x) && std::isnan(y)))) return false;
        break;
      }
      case TypeId::kString:
        if (l.col->GetString(l.base + a) != l.col->GetString(l.base + b)) {
          return false;
        }
        break;
    }
  }
  return true;
}

/// True when every key lane is integer-typed with no NULL bytes — the
/// dominant GROUP BY shape (int key columns). Equality then reduces to raw
/// int compares, so the probe loop skips LaneRowsEqual's per-lane null
/// checks and type dispatch, which run on every row (a hash match IS the
/// common case: same-group rows share the hash).
bool AllIntNoNull(const std::vector<KeyLane>& lanes) {
  for (const KeyLane& l : lanes) {
    if ((l.type != TypeId::kInt64 && l.type != TypeId::kBool) ||
        l.nulls != nullptr) {
      return false;
    }
  }
  return true;
}

inline bool IntRowsEqual(const KeyLane* lanes, size_t nlanes, uint32_t a,
                         uint32_t b) {
  for (size_t i = 0; i < nlanes; ++i) {
    if (lanes[i].ints[a] != lanes[i].ints[b]) return false;
  }
  return true;
}

/// Mixed int/double key lanes, still no NULLs (e.g. GROUP BY g, sid where
/// sid came out of a floor() expression as Double). Per-lane branch on the
/// stored int pointer replaces the type switch; double equality keeps the
/// NaNs-equal rule so grouping matches CellsEqual exactly.
bool AllNumericNoNull(const std::vector<KeyLane>& lanes) {
  for (const KeyLane& l : lanes) {
    if (l.nulls != nullptr) return false;
    if (l.type != TypeId::kInt64 && l.type != TypeId::kBool &&
        l.type != TypeId::kDouble) {
      return false;
    }
  }
  return true;
}

inline bool NumRowsEqual(const KeyLane* lanes, size_t nlanes, uint32_t a,
                         uint32_t b) {
  for (size_t i = 0; i < nlanes; ++i) {
    const KeyLane& l = lanes[i];
    if (l.ints != nullptr) {
      if (l.ints[a] != l.ints[b]) return false;
    } else {
      const double x = l.dbls[a], y = l.dbls[b];
      if (!(x == y || (std::isnan(x) && std::isnan(y)))) return false;
    }
  }
  return true;
}

// ---- dense arm --------------------------------------------------------------
//
// Keys that are small dense integers (GROUP BY g, sid: sid = 1 + floor(rand()
// * b) lies in [1, b]) need no hashing per row: each key tuple maps straight
// to a slot of a direct-indexed array whose size is the product of the
// per-column [min, max] ranges. A row looks its gid up there and a fresh slot
// takes the next gid, so gids, first-occurrence order and representatives are
// exactly the hash arm's; only the representatives are hashed, with the hash
// arm's own formula (HashGroupKeys), so group_hash is identical too.

/// Slot-array bound: the key ranges' product may not exceed
/// max(kDenseSlotsPerRow * rows, kDenseMinSlots) — scratch of at most a few
/// bytes per row beside the 8-byte per-row hash array the hash arm allocates,
/// and a floor so that small inputs with domains like 100 x 100 still qualify.
/// Tuned with bench_agg.
constexpr uint64_t kDenseSlotsPerRow = 4;
constexpr uint64_t kDenseMinSlots = uint64_t{1} << 16;

/// Doubles join the dense arm only as exact integers below 2^53 in magnitude
/// (NaN and infinities fail the bound test); -0.0 indexes like 0, as it
/// groups with 0 on the hash arm.
constexpr double kDenseDoubleLimit = 9007199254740992.0;  // 2^53

/// slot(r) = sum over key columns c of (key_c(r) - lo[c]) * stride[c].
struct DensePlan {
  std::vector<int64_t> lo;
  std::vector<uint64_t> stride;
  uint64_t slots = 1;
};

/// [min, max] of one lane over rows row_of(0..n); false when a double is not
/// an exact integer below 2^53. n > 0.
template <typename RowOf>
bool LaneRange(const KeyLane& l, RowOf row_of, size_t n, int64_t* lo,
               int64_t* hi) {
  int64_t mn = std::numeric_limits<int64_t>::max();
  int64_t mx = std::numeric_limits<int64_t>::min();
  if (l.ints != nullptr) {
    for (size_t k = 0; k < n; ++k) {
      const int64_t x = l.ints[row_of(k)];
      mn = std::min(mn, x);
      mx = std::max(mx, x);
    }
  } else {
    for (size_t k = 0; k < n; ++k) {
      const double x = l.dbls[row_of(k)];
      if (!(std::abs(x) < kDenseDoubleLimit)) return false;
      const int64_t i = static_cast<int64_t>(x);
      if (static_cast<double>(i) != x) return false;
      mn = std::min(mn, i);
      mx = std::max(mx, i);
    }
  }
  *lo = mn;
  *hi = mx;
  return true;
}

/// Plans the dense arm over rows row_of(0..n), or returns false: every key
/// must be a NULL-free Int64/Bool lane or a NULL-free Double lane of exact
/// integers, and the ranges' product must stay within the slot bound (itself
/// below 2^32, so slot indices fit the uint32 gid array they are built in).
template <typename RowOf>
bool PlanDense(const std::vector<KeyLane>& lanes, RowOf row_of, size_t n,
               DensePlan* plan) {
  if (n == 0) return false;
  for (const KeyLane& l : lanes) {
    if (l.nulls != nullptr || (l.ints == nullptr && l.dbls == nullptr)) {
      return false;
    }
  }
  const uint64_t bound = std::min<uint64_t>(
      std::max(kDenseSlotsPerRow * static_cast<uint64_t>(n), kDenseMinSlots),
      GroupTable::kNoGroup);
  for (const KeyLane& l : lanes) {  // vdb-lint: allow(ungoverned-loop) column-count bounded, not row-proportional
    int64_t lo = 0, hi = 0;
    if (!LaneRange(l, row_of, n, &lo, &hi)) return false;
    // Unsigned difference: exact for any lo <= hi, no signed overflow.
    const uint64_t range =
        static_cast<uint64_t>(hi) - static_cast<uint64_t>(lo) + 1;
    if (range == 0 || range > bound / plan->slots) return false;
    plan->lo.push_back(lo);
    plan->stride.push_back(plan->slots);
    plan->slots *= range;
  }
  return true;
}

/// The dense arm proper over rows row_of(0..n): gid_of_row, rep_row in
/// first-occurrence order, then group_hash over the representatives. Slot
/// indices are built column at a time in gid_of_row itself, then replaced
/// by gids in one pass.
template <typename RowOf>
void AssignDense(const std::vector<KeyCol>& cols,
                 const std::vector<KeyLane>& lanes, const DensePlan& plan,
                 RowOf row_of, size_t n, GroupAssignment* out) {
  uint32_t* idx = out->gid_of_row.data();
  std::fill(idx, idx + n, 0u);
  for (size_t c = 0; c < lanes.size(); ++c) {
    const KeyLane& l = lanes[c];
    const int64_t lo = plan.lo[c];
    const uint32_t stride = static_cast<uint32_t>(plan.stride[c]);
    // (x - lo) and the product stay below the slot count, itself < 2^32.
    if (l.ints != nullptr) {
      for (size_t k = 0; k < n; ++k) {
        idx[k] += static_cast<uint32_t>(l.ints[row_of(k)] - lo) * stride;
      }
    } else {
      for (size_t k = 0; k < n; ++k) {
        idx[k] += static_cast<uint32_t>(
                      static_cast<int64_t>(l.dbls[row_of(k)]) - lo) *
                  stride;
      }
    }
  }
  // Scratch bounded by max(4 * rows, 2^16) slots, like the hash arm's
  // 8-byte-per-row hash array.
  std::vector<uint32_t> slot_gid(plan.slots, GroupTable::kNoGroup);
  for (size_t k = 0; k < n; ++k) {  // vdb-lint: allow(ungoverned-loop) one group-id pass over a morsel; the morsel claim is the poll point, as for the hash arm's probe
    uint32_t& g = slot_gid[idx[k]];
    if (g == GroupTable::kNoGroup) {
      g = static_cast<uint32_t>(out->rep_row.size());  // vdb-lint: allow(naked-size-narrowing) group count <= row count, guarded by CheckGroupableRows
      out->rep_row.push_back(static_cast<uint32_t>(row_of(k)));
    }
    idx[k] = g;
  }
  // Hash the representatives exactly as the hash arm hashes every row.
  const size_t ng = out->rep_row.size();
  std::vector<Column> reps(cols.size());
  std::vector<const Column*> ptrs;
  ptrs.reserve(cols.size());  // vdb-lint: allow(naked-reserve) column-count bounded
  for (size_t c = 0; c < cols.size(); ++c) {  // vdb-lint: allow(ungoverned-loop) column-count bounded, not row-proportional
    reps[c].AppendSelectedValues(*cols[c].col, cols[c].base,
                                 out->rep_row.data(), ng);
    ptrs.push_back(&reps[c]);
  }
  HashGroupKeys(ptrs, ng, &out->group_hash);
}

}  // namespace

void SetGroupHashMaskForTest(uint64_t mask) {
  g_group_hash_mask.store(mask, std::memory_order_relaxed);
}

uint64_t GroupHashMaskForTest() {
  return g_group_hash_mask.load(std::memory_order_relaxed);
}

void HashGroupKeys(const std::vector<const Column*>& cols, size_t num_rows,
                   std::vector<uint64_t>* hashes) {
  hashes->assign(num_rows, kGroupHashSeed);
  for (const Column* c : cols) HashGroupColumn(*c, num_rows, hashes);
  const uint64_t mask = GroupHashMaskForTest();
  if (mask != ~0ull) {
    for (uint64_t& h : *hashes) h &= mask;
  }
}

namespace {

/// Based form of HashGroupKeys: hashes rows [base, base + num_rows) of each
/// key column into hashes[0..num_rows).
void HashGroupKeysBased(const std::vector<KeyCol>& cols, size_t num_rows,
                        std::vector<uint64_t>* hashes) {
  hashes->assign(num_rows, kGroupHashSeed);
  for (const KeyCol& kc : cols) {
    HashGroupColumnRange(*kc.col, kc.base, kc.base + num_rows,
                         hashes->data());
  }
  const uint64_t mask = GroupHashMaskForTest();
  if (mask != ~0ull) {
    for (uint64_t& h : *hashes) h &= mask;
  }
}

std::vector<KeyCol> ZeroBased(const std::vector<const Column*>& cols) {
  std::vector<KeyCol> kcs;
  kcs.reserve(cols.size());  // vdb-lint: allow(naked-reserve) column-count bounded
  for (const Column* c : cols) kcs.push_back(KeyCol{c, 0});
  return kcs;
}

}  // namespace

Status GroupTable::Charge(size_t cap) const {
  if (!governed_) return Status::Ok();
  return GuardTryReserve(guard_, static_cast<uint64_t>(cap) * sizeof(Slot),
                         "agg_group_grow");
}

void GroupTable::Reset(size_t expected) {
  size_t cap = 16;
  // Size so `expected` groups stay under the 3/4 load factor.
  while (cap * 3 < (expected + 1) * 4) cap <<= 1;
  GuardRelease(guard_, charged_bytes_);
  charged_bytes_ = 0;
  guard_status_ = Status::Ok();
  Status st = Charge(cap);
  if (!st.ok()) {
    // Latch and fall back to the minimum capacity (uncharged) so callers
    // that probe before checking guard_status() stay in-bounds; the first
    // growth attempt re-fails and stops inserts.
    guard_status_ = std::move(st);
    cap = 16;
  } else if (guard_ != nullptr) {
    charged_bytes_ = static_cast<uint64_t>(cap) * sizeof(Slot);
  }
  slots_.assign(cap, Slot{0, kNoGroup});
  group_hashes_.clear();
}

void GroupTable::Grow() {
  const size_t cap = slots_.empty() ? 16 : slots_.size() * 2;
  // Charge the doubled array before releasing the old charge: both buffers
  // are briefly alive during the reallocation, and a failed charge must
  // leave the existing (still valid) table untouched.
  Status st = Charge(cap);
  if (!st.ok()) {
    if (guard_status_.ok()) guard_status_ = std::move(st);
    return;
  }
  GuardRelease(guard_, charged_bytes_);
  charged_bytes_ =
      guard_ != nullptr ? static_cast<uint64_t>(cap) * sizeof(Slot) : 0;
  slots_.assign(cap, Slot{0, kNoGroup});
  Rehash();
}

void GroupTable::Rehash() {
  const uint64_t mask = slots_.size() - 1;
  // No equality checks needed: every gid is already distinct, same-hash
  // groups just extend the chain.
  for (uint32_t g = 0; g < group_hashes_.size(); ++g) {
    size_t i = group_hashes_[g] & mask;
    while (slots_[i].gid != kNoGroup) i = (i + 1) & mask;
    slots_[i] = Slot{group_hashes_[g], g};
  }
}

void GroupTable::Seed(size_t expected, std::vector<uint64_t> hashes) {
  Reset(std::max(expected, hashes.size()));
  if (!guard_status_.ok()) return;
  group_hashes_ = std::move(hashes);
  Rehash();
}

namespace {

/// One key column's verification lane for a merge batch: global column `g`
/// (gid-indexed) against the merging partial's column `m` (row-indexed).
/// kInt/kDbl are the same-type, NULL-free raw-lane fast paths; kCells goes
/// through GroupCellsEqual, kSegments through the column's exact segments.
struct MergeLane {
  enum Kind : uint8_t { kInt, kDbl, kCells, kSegments } kind;
  const int64_t* gi = nullptr;
  const int64_t* mi = nullptr;
  const double* gd = nullptr;
  const double* md = nullptr;
  const Column* g = nullptr;
  const Column* m = nullptr;
};

}  // namespace

void GroupMergeTable::Adopt(std::vector<Column> keys,
                            std::vector<uint64_t> hashes, size_t expected) {
  num_groups_ = hashes.size();
  keys_ = std::move(keys);
  adopted_hashes_ = std::move(hashes);
  exact_.assign(keys_.size(), Segments{});
  expected_ = expected;
  indexed_ = false;
}

void GroupMergeTable::Merge(const std::vector<Column>& keys,
                            const std::vector<uint64_t>& hashes,
                            std::vector<uint32_t>* gids) {
  const size_t n = hashes.size();
  gids->assign(n, 0);
  if (!indexed_) {
    table_.Seed(expected_, std::move(adopted_hashes_));
    indexed_ = true;
  }
  if (!table_.guard_status().ok()) return;

  std::vector<MergeLane> lanes(keys_.size());
  for (size_t c = 0; c < keys_.size(); ++c) {
    const Column& g = keys_[c];
    const Column& m = keys[c];
    MergeLane& l = lanes[c];
    l.g = &g;
    l.m = &m;
    const bool no_nulls = g.NullData() == nullptr && m.NullData() == nullptr;
    if (!exact_[c].segs.empty()) {
      l.kind = MergeLane::kSegments;
    } else if (no_nulls && g.type() == TypeId::kInt64 &&
               m.type() == TypeId::kInt64) {
      l.kind = MergeLane::kInt;
      l.gi = g.IntData();
      l.mi = m.IntData();
    } else if (no_nulls && g.type() == TypeId::kDouble &&
               m.type() == TypeId::kDouble) {
      l.kind = MergeLane::kDbl;
      l.gd = g.DoubleData();
      l.md = m.DoubleData();
    } else {
      l.kind = MergeLane::kCells;
    }
  }

  // Groups inserted by this batch are never equal to a later key of the
  // same partial (a partial's groups are distinct), so verification only
  // ever compares against gids below `first`, whose keys are in keys_.
  const uint32_t first = static_cast<uint32_t>(num_groups_);
  auto keys_eq = [&](size_t k, uint32_t g) {
    if (g >= first) return false;
    for (size_t c = 0; c < lanes.size(); ++c) {
      const MergeLane& l = lanes[c];
      bool eq = false;
      switch (l.kind) {
        case MergeLane::kInt:
          eq = l.gi[g] == l.mi[k];
          break;
        case MergeLane::kDbl:
          eq = l.gd[g] == l.md[k] ||
               (std::isnan(l.gd[g]) && std::isnan(l.md[k]));
          break;
        case MergeLane::kCells:
          eq = GroupCellsEqual(*l.g, g, *l.m, k);
          break;
        case MergeLane::kSegments: {
          const Segments& sg = exact_[c];
          const size_t s = static_cast<size_t>(
              std::upper_bound(sg.begins.begin(), sg.begins.end(), g) -
              sg.begins.begin() - 1);
          eq = GroupCellsEqual(sg.segs[s], g - sg.begins[s], *l.m, k);
          break;
        }
      }
      if (!eq) return false;
    }
    return true;
  };
  fresh_.clear();
  table_.FindOrInsertBatch(
      hashes.data(), n, keys_eq,
      [&](size_t k, uint32_t) { fresh_.push_back(static_cast<uint32_t>(k)); },
      gids->data());
  if (!table_.guard_status().ok()) return;
  num_groups_ += fresh_.size();
  if (fresh_.empty()) return;
  for (size_t c = 0; c < keys_.size(); ++c) {
    AppendFresh(c, keys[c], first);
  }
}

void GroupMergeTable::AppendFresh(size_t c, const Column& src,
                                  uint32_t first_gid) {
  Column& dst = keys_[c];
  Segments& sg = exact_[c];
  const TypeId dt = dst.type(), st = src.type();
  // Same type, or NULLs on one side: Append semantics lose nothing.
  const bool lossless =
      dt == TypeId::kNull || st == TypeId::kNull || dt == st;
  if (sg.segs.empty() && !lossless) {
    // First lossy append: keys_[c] still holds the exact values so far.
    sg.begins.push_back(0);
    sg.segs.push_back(dst);
  }
  if (!sg.segs.empty()) {
    Column seg;
    seg.AppendSelectedValues(src, 0, fresh_.data(), fresh_.size());
    sg.begins.push_back(first_gid);
    sg.segs.push_back(std::move(seg));
  }
  dst.AppendSelectedValues(src, 0, fresh_.data(), fresh_.size());
}

void GroupMergeTable::ForEachExactRun(
    const std::function<void(uint32_t, const std::vector<Column>&)>& fn)
    const {
  if (num_groups_ == 0) return;
  // Runs break wherever some lossy column's exact segment begins.
  std::vector<uint32_t> cuts = {0};
  for (const Segments& sg : exact_) {  // vdb-lint: allow(ungoverned-loop) column-count bounded, not row-proportional
    cuts.insert(cuts.end(), sg.begins.begin(), sg.begins.end());
  }
  std::sort(cuts.begin(), cuts.end());
  cuts.erase(std::unique(cuts.begin(), cuts.end()), cuts.end());
  if (cuts.size() == 1) {
    fn(0, keys_);
    return;
  }
  cuts.push_back(static_cast<uint32_t>(num_groups_));
  for (size_t i = 0; i + 1 < cuts.size(); ++i) {  // vdb-lint: allow(ungoverned-loop) bounded by the number of lossy appends (at most one per merged morsel)
    const uint32_t b = cuts[i], e = cuts[i + 1];
    std::vector<Column> run(keys_.size());
    for (size_t c = 0; c < keys_.size(); ++c) {  // vdb-lint: allow(ungoverned-loop) column-count bounded, not row-proportional
      const Segments& sg = exact_[c];
      if (sg.segs.empty()) {
        run[c].AppendRange(keys_[c], b, e - b);
        continue;
      }
      const size_t s = static_cast<size_t>(
          std::upper_bound(sg.begins.begin(), sg.begins.end(), b) -
          sg.begins.begin() - 1);
      run[c].AppendRange(sg.segs[s], b - sg.begins[s], e - b);
    }
    fn(b, run);
  }
}

GroupAssignment AssignGroupIds(const std::vector<const Column*>& cols,
                               size_t num_rows) {
  return AssignGroupIdsBased(ZeroBased(cols), num_rows);
}

void AssignGroupIdsSelected(const std::vector<const Column*>& cols,
                            size_t num_dense, const uint32_t* rows, size_t n,
                            GroupAssignment* out) {
  AssignGroupIdsSelectedBased(ZeroBased(cols), num_dense, rows, n, out);
}

GroupAssignment AssignGroupIdsBased(const std::vector<KeyCol>& cols,
                                    size_t num_rows) {
  GroupAssignment out;
  out.gid_of_row.resize(num_rows);  // vdb-lint: allow(naked-reserve) 4B/row gid scratch, morsel- or input-bounded
  if (cols.empty()) {
    std::fill(out.gid_of_row.begin(), out.gid_of_row.end(), 0u);
    if (num_rows > 0) {
      out.rep_row.push_back(0);
      out.group_hash.push_back(kGroupHashSeed & GroupHashMaskForTest());
    }
    return out;
  }

  const std::vector<KeyLane> lanes = MakeKeyLanes(cols);
  const auto all_rows = [](size_t k) { return k; };
  DensePlan plan;
  if (PlanDense(lanes, all_rows, num_rows, &plan)) {
    AssignDense(cols, lanes, plan, all_rows, num_rows, &out);
    return out;
  }

  std::vector<uint64_t> hashes;
  HashGroupKeysBased(cols, num_rows, &hashes);

  GroupTable table;
  table.Reset(std::min<size_t>(num_rows, 64));
  auto probe = [&](auto rows_eq) {
    table.FindOrInsertBatch(
        hashes.data(), num_rows,
        [&](size_t r, uint32_t g) {
          return rows_eq(lanes.data(), lanes.size(), static_cast<uint32_t>(r),
                         out.rep_row[g]);
        },
        [&](size_t r, uint32_t) {
          out.rep_row.push_back(static_cast<uint32_t>(r));
        },
        out.gid_of_row.data());
  };
  // Each arm passes a distinct lambda type so the probe loop instantiates
  // with the equality inlined (a shared function pointer would indirect-call
  // per row).
  if (AllIntNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return IntRowsEqual(l, nl, a, b);
    });
  } else if (AllNumericNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return NumRowsEqual(l, nl, a, b);
    });
  } else {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return LaneRowsEqual(l, nl, a, b);
    });
  }
  out.group_hash = table.TakeGroupHashes();
  return out;
}

void AssignGroupIdsSelectedBased(const std::vector<KeyCol>& cols,
                                 size_t num_dense, const uint32_t* rows,
                                 size_t n, GroupAssignment* out) {
  out->gid_of_row.clear();
  out->rep_row.clear();
  out->group_hash.clear();
  out->gid_of_row.resize(n);  // vdb-lint: allow(naked-reserve) 4B/row gid scratch, morsel- or input-bounded
  if (n == 0) return;
  if (cols.empty()) {
    std::fill(out->gid_of_row.begin(), out->gid_of_row.end(), 0u);
    out->rep_row.push_back(rows[0]);
    out->group_hash.push_back(kGroupHashSeed & GroupHashMaskForTest());
    return;
  }

  const std::vector<KeyLane> lanes = MakeKeyLanes(cols);
  const auto selected = [rows](size_t k) -> size_t { return rows[k]; };
  DensePlan plan;
  if (PlanDense(lanes, selected, n, &plan)) {
    AssignDense(cols, lanes, plan, selected, n, out);
    return;
  }

  std::vector<uint64_t> hashes;
  HashGroupKeysBased(cols, num_dense, &hashes);

  // Compact the selected rows' hashes so the probe loop streams them.
  std::vector<uint64_t> sel_hashes(n);
  for (size_t k = 0; k < n; ++k) sel_hashes[k] = hashes[rows[k]];

  GroupTable table;
  table.Reset(std::min<size_t>(n, 64));
  auto probe = [&](auto rows_eq) {
    table.FindOrInsertBatch(
        sel_hashes.data(), n,
        [&](size_t k, uint32_t g) {
          return rows_eq(lanes.data(), lanes.size(), rows[k],
                         out->rep_row[g]);
        },
        [&](size_t k, uint32_t) { out->rep_row.push_back(rows[k]); },
        out->gid_of_row.data());
  };
  if (AllIntNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return IntRowsEqual(l, nl, a, b);
    });
  } else if (AllNumericNoNull(lanes)) {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return NumRowsEqual(l, nl, a, b);
    });
  } else {
    probe([](const KeyLane* l, size_t nl, uint32_t a, uint32_t b) {
      return LaneRowsEqual(l, nl, a, b);
    });
  }
  out->group_hash = table.TakeGroupHashes();
}

}  // namespace vdb::engine
