#include "engine/agg_table.h"

#include <algorithm>
#include <atomic>
#include <cmath>

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

  std::vector<uint64_t> hashes;
  HashGroupKeysBased(cols, num_rows, &hashes);
  const std::vector<KeyLane> lanes = MakeKeyLanes(cols);

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

  std::vector<uint64_t> hashes;
  HashGroupKeysBased(cols, num_dense, &hashes);
  const std::vector<KeyLane> lanes = MakeKeyLanes(cols);

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
