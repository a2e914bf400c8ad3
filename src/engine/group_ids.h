// Vectorized (column-at-a-time) group-id assignment for hash aggregation,
// DISTINCT, and any other grouping pass. Replaces the per-row std::string
// key concatenation the planner used: each group column is hashed in one
// typed inner loop, the per-column hashes are mixed into a single 64-bit row
// hash, and rows are bucketed by hash with a raw-storage equality check
// against each group's representative row to resolve collisions.
//
// The induced partition matches ValueGroupKey's equivalence: NULL groups
// with NULL, numerically equal integers and doubles group together (5 and
// 5.0), every NaN groups with every other NaN, and -0.0 groups with 0.0.

#ifndef VDB_ENGINE_GROUP_IDS_H_
#define VDB_ENGINE_GROUP_IDS_H_

#include <cstdint>
#include <vector>

#include "common/hash.h"
#include "common/status.h"
#include "common/value.h"
#include "engine/column.h"

namespace vdb::engine {

/// Initial mixing state for every multi-column group/join key hash. Hashes
/// are pure functions of the key values, so any two sites that hash the same
/// values (different morsels, the partial-merge table, a test) agree.
constexpr uint64_t kGroupHashSeed = 0x2545F4914F6CDD1Dull;

struct GroupAssignment {
  /// Group id of each input row; ids are dense and assigned in order of
  /// first occurrence (so group g's representative precedes group g+1's).
  std::vector<uint32_t> gid_of_row;
  /// First input row of each group, ascending.
  std::vector<uint32_t> rep_row;
  /// Mixed key hash of each group (the per-row hash of its representative,
  /// after the test mask). Pure function of the key values, so partial
  /// results from different morsels carry merge-table-ready hashes.
  std::vector<uint64_t> group_hash;

  size_t num_groups() const { return rep_row.size(); }
};

/// The combine step of every multi-column group hash: folds one key's
/// per-value hash `v` into the running hash `h` (seeded with kGroupHashSeed).
/// Exposed so a client that stores a key prefix's hash can extend it by one
/// more key without rehashing the prefix: MixGroupHash(prefix, HashMix64(i))
/// is the hash of (prefix..., i) for an Int64 key i, exactly as
/// HashGroupColumn computes it.
inline uint64_t MixGroupHash(uint64_t h, uint64_t v) {
  // Boost-style combine, then a full mix so consecutive columns decorrelate.
  return HashMix64(h ^ (v + 0x9E3779B97F4A7C15ull + (h << 6) + (h >> 2)));
}

/// Mixes column `col`'s per-row group hash into hashes[0..num_rows). Called
/// once per group column; the loops are type-specialized over raw storage.
void HashGroupColumn(const Column& col, size_t num_rows,
                     std::vector<uint64_t>* hashes);

/// Range form: mixes the group hash of rows [begin, end) into
/// out[0 .. end - begin) (relative output indexing). The flat sink's
/// zero-copy direct-column path hashes a morsel's slice of a table column
/// without materializing it first.
void HashGroupColumnRange(const Column& col, size_t begin, size_t end,
                          uint64_t* out);

/// Raw-storage equality of rows `a` and `b` across the group columns, under
/// ValueGroupKey equivalence (NULL == NULL, NaN == NaN, -0.0 == 0.0). The
/// representative-row verification step of every flat group table.
bool GroupRowsEqual(const std::vector<const Column*>& cols, size_t a,
                    size_t b);

/// Cross-column cell equality under ValueGroupKey equivalence: row `ra` of
/// `a` vs row `rb` of `b`, which may differ in type. NULL equals NULL, NaN
/// equals NaN, -0.0 equals 0.0, numerics compare by value across Int64 and
/// Double (5 == 5.0), strings never equal numerics — GroupValuesEqual on the
/// two cells, without boxing them. The merge table's key verification and
/// JoinKeysEqual's per-column check.
bool GroupCellsEqual(const Column& a, size_t ra, const Column& b, size_t rb);

/// Per-value group hash under the same equivalence the column hashers use:
/// 5 (Int64) and 5.0 (Double) hash equally, every NaN hashes to one class,
/// -0.0 hashes like 0, NULL gets its own tag. Feeds the flat DISTINCT value
/// set.
uint64_t GroupValueHash(const Value& v);

/// Value equality under ValueGroupKey equivalence — the Value mirror of
/// GroupCellsEqual (Value::Compare cannot serve here: it buckets NaN as
/// equal to everything, while grouping needs NaN == NaN only).
bool GroupValuesEqual(const Value& a, const Value& b);

// ---------------------------------------------------------- join-key hashing

/// Hashes multi-column join keys for rows [begin, end) column-at-a-time into
/// hashes[begin..end) (absolute row indexing; callers morsel-parallelize by
/// handing workers disjoint ranges of preallocated arrays) and ORs a flag
/// into any_null[r] for rows with a NULL in any key column (NULL join keys
/// never match, unlike grouping where NULL groups with NULL).
///
/// The hash respects ValueGroupKey equivalence across differently-typed key
/// columns: 5 (Int64) and 5.0 (Double) hash equally, every NaN hashes to one
/// class, and -0.0 hashes like 0 — so an Int64 key column joins against a
/// Double key column exactly as the string-key reference did, and serial and
/// radix-partitioned parallel builds agree bit-for-bit.
void HashJoinKeyColumns(const std::vector<const Column*>& keys, size_t begin,
                        size_t end, uint64_t* hashes, uint8_t* any_null);

/// Cross-table key equality under ValueGroupKey equivalence: row `arow` of
/// key columns `a` vs row `brow` of key columns `b` (same arity). Numeric
/// values compare by value across Int64/Double columns, NaN equals NaN,
/// -0.0 equals 0.0, strings never equal numerics. Only called for same-hash
/// candidates, so it stays off the probe hot path.
bool JoinKeysEqual(const std::vector<const Column*>& a, size_t arow,
                   const std::vector<const Column*>& b, size_t brow);

/// Test hook: ANDs every join-key hash with `mask` after mixing, forcing
/// distinct keys into shared 64-bit hashes so collision handling in the flat
/// build table is exercised deterministically. ~0ull (the default) disables.
/// Applies to join-key hashing only, never to group-id assignment.
void SetJoinKeyHashMaskForTest(uint64_t mask);

/// Guard for the uint32_t gid/rep_row storage (and SelVector outputs built
/// from it): callers must reject inputs above 2^32 - 2 rows with this Status
/// instead of silently truncating ids.
Status CheckGroupableRows(size_t num_rows);

/// Assigns dense group ids over `cols` (all of size num_rows). With no
/// columns, every row lands in one group (the implicit aggregate group).
/// Precondition: CheckGroupableRows(num_rows).ok().
/// Implemented in engine/agg_table.cc over the flat open-addressing
/// GroupTable (hash-first match, representative-row verification).
GroupAssignment AssignGroupIds(const std::vector<const Column*>& cols,
                               size_t num_rows);

}  // namespace vdb::engine

#endif  // VDB_ENGINE_GROUP_IDS_H_
