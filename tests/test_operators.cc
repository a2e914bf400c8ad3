// Join operator tests targeting the vectorized materialization paths:
// chunked residual evaluation across chunk boundaries (hot keys), left-join
// null-extension ordering, the sentinel-segment gather — and the flat
// radix-partitioned join table: forced 64-bit hash collisions, NaN / signed
// zero key canonicalization, empty/all-NULL build sides, mixed-type keys,
// morsel-boundary null extension, and a differential fuzz loop against the
// old string-map join kept here as the reference, all bit-identical at
// 1/2/8 threads. The SQL-level section at the bottom checks join output
// pruning (a join gathers only the columns its statement references)
// against the same join under a `select *` derived table, which keeps every
// column.

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <string>
#include <unordered_map>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/aggregates.h"
#include "engine/database.h"
#include "engine/group_ids.h"
#include "engine/join_table.h"
#include "engine/kernels/kernels.h"
#include "engine/operators.h"
#include "sql/ast.h"

namespace vdb::engine {
namespace {

using sql::BinaryOp;
using sql::Expr;

TablePtr MakeKeyed(size_t rows, int64_t key_mod, const char* payload_name) {
  auto t = std::make_shared<Table>();
  Column key(TypeId::kInt64), payload(TypeId::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    key.AppendInt(static_cast<int64_t>(r) % key_mod);
    payload.AppendInt(static_cast<int64_t>(r));
  }
  t->AddColumn("k", std::move(key));
  t->AddColumn(payload_name, std::move(payload));
  return t;
}

/// Bound column ref into the combined (left ++ right) schema.
Expr::Ptr CombinedRef(int ordinal) {
  auto e = sql::MakeColumnRef("", "c" + std::to_string(ordinal));
  e->bound_column = ordinal;
  return e;
}

TEST(HashJoinTest, ResidualAcrossChunkBoundaries) {
  // One hot key: 150,000 candidate pairs — crosses the 65,536-pair chunk at
  // least twice. Residual keeps the pairs where the right payload is even.
  auto left = MakeKeyed(3, 1, "lv");        // 3 rows, all key 0
  auto right = MakeKeyed(50'000, 1, "rv");  // 50k rows, all key 0
  // Combined schema: k, lv, k, rv -> rv is ordinal 3.
  auto residual = sql::MakeBinary(
      BinaryOp::kEq,
      sql::MakeBinary(BinaryOp::kMod, CombinedRef(3), sql::MakeIntLit(2)),
      sql::MakeIntLit(0));
  auto joined = HashJoin(*left, *right, std::vector<int>{0}, std::vector<int>{0}, sql::JoinType::kInner,
                         residual.get(), /*rand_seed=*/1);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // 3 left rows x 25,000 even right payloads.
  EXPECT_EQ(joined.value()->num_rows(), 75'000u);
  // Output is left-row-major with right rows in build order: first block is
  // left row 0 against rv = 0, 2, 4, ...
  const Table& out = *joined.value();
  EXPECT_EQ(out.Get(0, 1).AsInt(), 0);   // lv of first pair
  EXPECT_EQ(out.Get(0, 3).AsInt(), 0);   // rv
  EXPECT_EQ(out.Get(1, 3).AsInt(), 2);
  EXPECT_EQ(out.Get(25'000, 1).AsInt(), 1);  // second left row's block
  EXPECT_EQ(out.Get(25'000, 3).AsInt(), 0);
}

TEST(HashJoinTest, LeftJoinResidualNullExtensionOrder) {
  // Left keys 0..9; right has keys 0..4 with two rows each. The residual
  // keeps only right payloads >= 5, which null-extends keys 0..4's failed
  // matches and keys 5..9's missing matches alike, in left order.
  auto left = MakeKeyed(10, 10, "lv");
  auto right = MakeKeyed(10, 5, "rv");  // rv r has key r % 5
  auto residual = sql::MakeBinary(BinaryOp::kGe, CombinedRef(3),
                                  sql::MakeIntLit(5));
  auto joined = HashJoin(*left, *right, std::vector<int>{0}, std::vector<int>{0}, sql::JoinType::kLeft,
                         residual.get(), /*rand_seed=*/1);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  const Table& out = *joined.value();
  // Every left key 0..4 matches exactly one right row (payload 5..9); keys
  // 5..9 are null-extended. One output row per left row, in order.
  ASSERT_EQ(out.num_rows(), 10u);
  for (size_t r = 0; r < 10; ++r) {
    EXPECT_EQ(out.Get(r, 1).AsInt(), static_cast<int64_t>(r)) << "row " << r;
    if (r < 5) {
      EXPECT_EQ(out.Get(r, 3).AsInt(), static_cast<int64_t>(r + 5));
    } else {
      EXPECT_TRUE(out.Get(r, 3).is_null()) << "row " << r;
      EXPECT_TRUE(out.Get(r, 2).is_null());  // right key null-extended too
    }
  }
}

TEST(HashJoinTest, LeftJoinAllUnmatchedStreams) {
  // No key overlap at all, with a residual: the whole left side goes through
  // the no-candidate marker path.
  auto left = MakeKeyed(100, 100, "lv");
  auto right = std::make_shared<Table>();
  Column k(TypeId::kInt64), rv(TypeId::kInt64);
  k.AppendInt(1'000'000);
  rv.AppendInt(7);
  right->AddColumn("k", std::move(k));
  right->AddColumn("rv", std::move(rv));
  auto residual = sql::MakeBinary(BinaryOp::kGt, CombinedRef(3),
                                  sql::MakeIntLit(0));
  auto joined = HashJoin(*left, *right, std::vector<int>{0}, std::vector<int>{0}, sql::JoinType::kLeft,
                         residual.get(), /*rand_seed=*/1);
  ASSERT_TRUE(joined.ok());
  ASSERT_EQ(joined.value()->num_rows(), 100u);
  for (size_t r = 0; r < 100; ++r) {
    EXPECT_EQ(joined.value()->Get(r, 1).AsInt(), static_cast<int64_t>(r));
    EXPECT_TRUE(joined.value()->Get(r, 3).is_null());
  }
}

TEST(CrossJoinTest, ResidualAcrossChunkBoundaries) {
  // 300 x 300 = 90,000 pairs crosses the 65,536-pair chunk once.
  auto left = MakeKeyed(300, 300, "lv");
  auto right = MakeKeyed(300, 300, "rv");
  auto residual = sql::MakeBinary(BinaryOp::kLt, CombinedRef(1),
                                  CombinedRef(3));  // lv < rv
  auto joined = CrossJoin(*left, *right, residual.get(), /*rand_seed=*/1);
  ASSERT_TRUE(joined.ok()) << joined.status().ToString();
  // Pairs with lv < rv: 300*299/2.
  EXPECT_EQ(joined.value()->num_rows(), 300u * 299u / 2u);
  // Pair order is left-major: first surviving pair is (0, 1).
  EXPECT_EQ(joined.value()->Get(0, 1).AsInt(), 0);
  EXPECT_EQ(joined.value()->Get(0, 3).AsInt(), 1);
}

// ---------------------------------------------------------------------------
// Flat radix-partitioned join table vs. the old string-map reference.
// ---------------------------------------------------------------------------

/// The pre-rewrite per-row string-key hash join, kept as the semantic
/// reference for the differential tests: ValueGroupKey concatenation on both
/// sides, serial std::unordered_map build, left-row-major probe, duplicate
/// right rows in build (ascending) order, per-row Value materialization.
/// `residual` (may be null) mirrors the ON-residual contract: candidates are
/// filtered before left-join null extension.
TablePtr StringMapJoinReference(
    const Table& left, const Table& right, const std::vector<int>& lkeys,
    const std::vector<int>& rkeys, bool left_join,
    const std::function<bool(size_t, size_t)>& residual = nullptr) {
  auto key_of = [](const Table& t, size_t row, const std::vector<int>& keys,
                   bool* has_null) {
    std::string key;
    *has_null = false;
    for (int k : keys) {
      Value v = t.column(static_cast<size_t>(k)).Get(row);
      if (v.is_null()) *has_null = true;
      key += ValueGroupKey(v);
      key.push_back('\x1f');
    }
    return key;
  };
  std::unordered_map<std::string, std::vector<uint32_t>> build;
  for (size_t r = 0; r < right.num_rows(); ++r) {
    bool has_null = false;
    std::string key = key_of(right, r, rkeys, &has_null);
    if (!has_null) build[key].push_back(static_cast<uint32_t>(r));
  }
  auto out = std::make_shared<Table>();
  for (size_t c = 0; c < left.num_columns(); ++c) {
    out->AddColumn(left.column_name(c), left.column(c).type());
  }
  for (size_t c = 0; c < right.num_columns(); ++c) {
    out->AddColumn(right.column_name(c), right.column(c).type());
  }
  auto emit = [&](size_t lr, int64_t rr) {
    std::vector<Value> row;
    for (size_t c = 0; c < left.num_columns(); ++c) row.push_back(left.Get(lr, c));
    for (size_t c = 0; c < right.num_columns(); ++c) {
      row.push_back(rr < 0 ? Value::Null()
                           : right.Get(static_cast<size_t>(rr), c));
    }
    out->AppendRow(row);
  };
  for (size_t lr = 0; lr < left.num_rows(); ++lr) {
    bool has_null = false;
    std::string key = key_of(left, lr, lkeys, &has_null);
    bool matched = false;
    if (!has_null) {
      auto it = build.find(key);
      if (it != build.end()) {
        for (uint32_t rr : it->second) {
          if (residual != nullptr && !residual(lr, rr)) continue;
          emit(lr, rr);
          matched = true;
        }
      }
    }
    if (!matched && left_join) emit(lr, -1);
  }
  return out;
}

/// Bit-identical table equality: schema (names, column types), row count,
/// null masks, and values — doubles by bit pattern, so NaN payload cells
/// compare equal and a signed-zero flip would be caught.
void ExpectTablesBitIdentical(const Table& ref, const Table& got,
                              const std::string& what) {
  ASSERT_EQ(ref.num_columns(), got.num_columns()) << what;
  ASSERT_EQ(ref.num_rows(), got.num_rows()) << what;
  for (size_t c = 0; c < ref.num_columns(); ++c) {
    EXPECT_EQ(ref.column_name(c), got.column_name(c)) << what;
    ASSERT_EQ(ref.column(c).type(), got.column(c).type())
        << what << " column " << c;
  }
  for (size_t c = 0; c < ref.num_columns(); ++c) {
    const Column& a = ref.column(c);
    const Column& b = got.column(c);
    for (size_t r = 0; r < ref.num_rows(); ++r) {
      ASSERT_EQ(a.IsNull(r), b.IsNull(r))
          << what << " cell (" << r << "," << c << ")";
      if (a.IsNull(r)) continue;
      switch (a.type()) {
        case TypeId::kNull:
          break;
        case TypeId::kBool:
        case TypeId::kInt64:
          ASSERT_EQ(a.GetInt(r), b.GetInt(r))
              << what << " cell (" << r << "," << c << ")";
          break;
        case TypeId::kDouble: {
          const double x = a.GetDouble(r), y = b.GetDouble(r);
          ASSERT_EQ(std::memcmp(&x, &y, sizeof(x)), 0)
              << what << " cell (" << r << "," << c << "): " << x << " vs "
              << y;
          break;
        }
        case TypeId::kString:
          ASSERT_EQ(a.GetString(r), b.GetString(r))
              << what << " cell (" << r << "," << c << ")";
          break;
      }
    }
  }
}

/// Runs the new join at 1, 2 and 8 threads and asserts every run is
/// bit-identical (values AND row order) to the string-map reference.
void CheckJoinMatchesReference(const Table& left, const Table& right,
                               const std::vector<int>& lkeys,
                               const std::vector<int>& rkeys,
                               sql::JoinType type, const std::string& what,
                               const sql::Expr* residual = nullptr,
                               const std::function<bool(size_t, size_t)>&
                                   residual_ref = nullptr) {
  TablePtr ref = StringMapJoinReference(left, right, lkeys, rkeys,
                                        type == sql::JoinType::kLeft,
                                        residual_ref);
  for (int threads : {1, 2, 8}) {
    auto got = HashJoin(left, right, lkeys, rkeys, type, residual,
                        /*rand_seed=*/1, threads);
    ASSERT_TRUE(got.ok()) << what << ": " << got.status().ToString();
    ExpectTablesBitIdentical(*ref, *got.value(),
                             what + " @" + std::to_string(threads));
  }
}

/// Shrinks morsels so small tables still exercise the radix-partitioned
/// parallel build and multi-morsel probes; restores the hash mask in case a
/// collision test failed mid-way.
class JoinRewriteTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMorselRowsForTest(64); }
  void TearDown() override {
    SetMorselRowsForTest(0);
    SetJoinKeyHashMaskForTest(~0ull);
  }
};

TablePtr MakeDoubleKeyed(const std::vector<Value>& keys, const char* payload) {
  auto t = std::make_shared<Table>();
  Column k(TypeId::kDouble), p(TypeId::kInt64);
  for (size_t r = 0; r < keys.size(); ++r) {
    k.Append(keys[r]);
    p.AppendInt(static_cast<int64_t>(r));
  }
  t->AddColumn("k", std::move(k));
  t->AddColumn(payload, std::move(p));
  return t;
}

TEST_F(JoinRewriteTest, NanAndSignedZeroKeys) {
  const double nan = std::numeric_limits<double>::quiet_NaN();
  auto left = MakeDoubleKeyed({Value::Double(nan), Value::Double(0.0),
                               Value::Double(-0.0), Value::Double(1.5),
                               Value::Null(), Value::Double(2.0)},
                              "lv");
  auto right = MakeDoubleKeyed({Value::Double(-nan), Value::Double(-0.0),
                                Value::Double(1.5), Value::Null(),
                                Value::Double(3.0)},
                               "rv");
  // NaN joins NaN (either sign), 0.0 and -0.0 join each other, NULL never
  // joins — one equivalence contract across the serial build, the radix
  // build, and the string-map reference.
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kInner,
                            "nan/zero inner");
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kLeft,
                            "nan/zero left");
  auto got = HashJoin(*left, *right, std::vector<int>{0}, std::vector<int>{0},
                      sql::JoinType::kInner, nullptr, /*rand_seed=*/1, 8);
  ASSERT_TRUE(got.ok());
  // Pairs: NaN->-nan, 0.0->-0.0, -0.0->-0.0, 1.5->1.5.
  EXPECT_EQ(got.value()->num_rows(), 4u);
}

TEST_F(JoinRewriteTest, ForcedHashCollisions) {
  // Squeeze every join-key hash to 3 bits: ~12 distinct keys per hash. The
  // flat table must resolve the collisions through representative-row key
  // verification, on both the build (insert) and probe (find) sides.
  SetJoinKeyHashMaskForTest(0x7);
  auto left = MakeKeyed(200, 100, "lv");
  auto right = MakeKeyed(100, 50, "rv");
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kInner,
                            "collision inner");
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kLeft,
                            "collision left");
}

TEST_F(JoinRewriteTest, ForcedCollisionsOnMultiColumnStringKeys) {
  SetJoinKeyHashMaskForTest(0x3);
  auto make = [](size_t rows, int mod, const char* payload) {
    auto t = std::make_shared<Table>();
    Column k1(TypeId::kInt64), k2(TypeId::kString), p(TypeId::kInt64);
    for (size_t r = 0; r < rows; ++r) {
      k1.AppendInt(static_cast<int64_t>(r) % mod);
      k2.AppendString("s" + std::to_string(r % 7));
      p.AppendInt(static_cast<int64_t>(r));
    }
    t->AddColumn("k1", std::move(k1));
    t->AddColumn("k2", std::move(k2));
    t->AddColumn(payload, std::move(p));
    return t;
  };
  auto left = make(150, 20, "lv");
  auto right = make(90, 15, "rv");
  CheckJoinMatchesReference(*left, *right, {0, 1}, {0, 1},
                            sql::JoinType::kInner, "multi-key collisions");
}

// ---------------------------------------------------------------------------
// Join Bloom pre-probe. The blocked Bloom filter may only ever REJECT probe
// rows that cannot match — no false negatives — so pair lists with the
// filter forced on and forced off must be identical, element for element, at
// any thread count, any hit rate, and under forced hash collisions.
// ---------------------------------------------------------------------------

TablePtr MakeKeyedRange(size_t rows, int64_t base, const char* payload_name,
                        int null_every = 0) {
  auto t = std::make_shared<Table>();
  Column key(TypeId::kInt64), payload(TypeId::kInt64);
  for (size_t r = 0; r < rows; ++r) {
    if (null_every > 0 && r % static_cast<size_t>(null_every) == 0) {
      key.Append(Value::Null());
    } else {
      key.AppendInt(base + static_cast<int64_t>(r));
    }
    payload.AppendInt(static_cast<int64_t>(r));
  }
  t->AddColumn("k", std::move(key));
  t->AddColumn(payload_name, std::move(payload));
  return t;
}

class JoinBloomTest : public ::testing::Test {
 protected:
  static constexpr size_t kAnyCount = static_cast<size_t>(-1);

  void SetUp() override { SetMorselRowsForTest(64); }
  void TearDown() override {
    SetMorselRowsForTest(0);
    SetJoinKeyHashMaskForTest(~0ull);
    SetJoinBloomForTest(-1);
  }

  static Result<JoinPairView> RunPairs(const TablePtr& left,
                                       const TablePtr& right, int bloom_mode,
                                       int threads) {
    SetJoinBloomForTest(bloom_mode);
    auto view = HashJoinPairs(left, right, {&left->column(0)},
                              {&right->column(0)}, sql::JoinType::kInner,
                              /*residual=*/nullptr, /*rand_seed=*/1, threads);
    SetJoinBloomForTest(-1);
    return view;
  }

  /// Runs the join with the filter forced off (reference) and forced on at
  /// 1/2/8 threads; the pair lists must match exactly. `expect_pairs`
  /// additionally pins the join cardinality (kAnyCount skips that check).
  static void CheckBloomDifferential(const TablePtr& left,
                                     const TablePtr& right,
                                     size_t expect_pairs, const char* what) {
    for (int threads : {1, 2, 8}) {
      auto ref = RunPairs(left, right, /*bloom_mode=*/0, threads);
      auto fil = RunPairs(left, right, /*bloom_mode=*/1, threads);
      ASSERT_TRUE(ref.ok()) << what << ": " << ref.status().ToString();
      ASSERT_TRUE(fil.ok()) << what << ": " << fil.status().ToString();
      if (expect_pairs != kAnyCount) {
        EXPECT_EQ(ref.value().num_pairs(), expect_pairs)
            << what << " @" << threads;
      }
      ASSERT_EQ(fil.value().lrows(), ref.value().lrows())
          << what << " @" << threads << ": filter dropped/reordered pairs";
      ASSERT_EQ(fil.value().rrows(), ref.value().rrows())
          << what << " @" << threads << ": filter dropped/reordered pairs";
    }
  }
};

TEST_F(JoinBloomTest, ZeroHitProbe) {
  // Disjoint key domains: every probe row is Bloom-rejectable (modulo false
  // positives) and the join is empty with or without the filter.
  auto left = MakeKeyedRange(500, 100000, "lv");
  auto right = MakeKeyedRange(400, 0, "rv");
  CheckBloomDifferential(left, right, /*expect_pairs=*/0, "zero-hit");
}

TEST_F(JoinBloomTest, FullHitProbe) {
  // Every probe key is present: the filter rejects nothing and must not
  // drop or reorder a single pair. (The production auto policy bails out of
  // this case adaptively; forcing the filter on via SetJoinBloomForTest(1)
  // disables the bail-out and exercises the worst case end to end.)
  auto left = MakeKeyedRange(300, 0, "lv");
  auto right = MakeKeyedRange(300, 0, "rv");
  CheckBloomDifferential(left, right, /*expect_pairs=*/300, "full-hit");
}

TEST_F(JoinBloomTest, MixedHitWithDuplicatesAndNullKeys) {
  // Duplicate build keys (chains), NULL probe and build keys (never join,
  // checked before the Bloom test), and a partial-overlap key range.
  auto left = MakeKeyedRange(240, 0, "lv", /*null_every=*/7);
  auto right = MakeKeyed(160, 40, "rv");  // keys 0..39, four dups each
  CheckBloomDifferential(left, right, kAnyCount, "mixed-hit");
}

TEST_F(JoinBloomTest, ForcedCollisionMaskDegeneratesFilterSafely) {
  // 3-bit hashes collapse the Bloom addressing: every key owns word 0 and
  // test bit 0, so the filter passes everything — maximum false-positive
  // rate, but still zero false negatives. Pair lists must stay identical
  // while the collision chains resolve through key verification.
  SetJoinKeyHashMaskForTest(0x7);
  auto left = MakeKeyed(200, 37, "lv");
  auto right = MakeKeyed(150, 25, "rv");
  CheckBloomDifferential(left, right, kAnyCount, "collision");
}

TEST_F(JoinRewriteTest, EmptyBuildSide) {
  auto left = MakeKeyed(100, 10, "lv");
  auto right = std::make_shared<Table>();
  right->AddColumn("k", TypeId::kInt64);
  right->AddColumn("rv", TypeId::kInt64);
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kInner,
                            "empty build inner");
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kLeft,
                            "empty build left");
}

TEST_F(JoinRewriteTest, EmptyProbeSide) {
  auto left = std::make_shared<Table>();
  left->AddColumn("k", TypeId::kInt64);
  left->AddColumn("lv", TypeId::kInt64);
  auto right = MakeKeyed(100, 10, "rv");
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kInner,
                            "empty probe inner");
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kLeft,
                            "empty probe left");
}

TEST_F(JoinRewriteTest, AllNullKeyColumns) {
  auto make = [](size_t rows, const char* payload) {
    auto t = std::make_shared<Table>();
    Column k(TypeId::kInt64), p(TypeId::kInt64);
    for (size_t r = 0; r < rows; ++r) {
      k.AppendNull();
      p.AppendInt(static_cast<int64_t>(r));
    }
    t->AddColumn("k", std::move(k));
    t->AddColumn(payload, std::move(p));
    return t;
  };
  auto left = make(130, "lv");
  auto right = make(70, "rv");
  // NULL keys never match: inner joins are empty, left joins null-extend
  // every probe row.
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kInner,
                            "all-null inner");
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kLeft,
                            "all-null left");
}

TEST_F(JoinRewriteTest, MixedTypeKeys) {
  // Left keys: (Int64, String); right keys: (Double, String). 5 must join
  // 5.0 (ValueGroupKey folds integral doubles into the integer class) while
  // 2.5 joins nothing on the int side.
  auto left = std::make_shared<Table>();
  {
    Column k1(TypeId::kInt64), k2(TypeId::kString), p(TypeId::kInt64);
    for (size_t r = 0; r < 120; ++r) {
      if (r % 11 == 0) {
        k1.AppendNull();
      } else {
        k1.AppendInt(static_cast<int64_t>(r % 9));
      }
      k2.AppendString(r % 3 == 0 ? "a" : "b");
      p.AppendInt(static_cast<int64_t>(r));
    }
    left->AddColumn("k1", std::move(k1));
    left->AddColumn("k2", std::move(k2));
    left->AddColumn("lv", std::move(p));
  }
  auto right = std::make_shared<Table>();
  {
    Column k1(TypeId::kDouble), k2(TypeId::kString), p(TypeId::kInt64);
    const double vals[] = {5.0, 2.5, 7.0, 0.0, -0.0, 3.0};
    for (size_t r = 0; r < 90; ++r) {
      if (r % 13 == 0) {
        k1.AppendNull();
      } else {
        k1.AppendDouble(vals[r % 6]);
      }
      k2.AppendString(r % 2 == 0 ? "a" : "b");
      p.AppendInt(static_cast<int64_t>(r));
    }
    right->AddColumn("k1", std::move(k1));
    right->AddColumn("k2", std::move(k2));
    right->AddColumn("rv", std::move(p));
  }
  CheckJoinMatchesReference(*left, *right, {0, 1}, {0, 1},
                            sql::JoinType::kInner, "mixed-type inner");
  CheckJoinMatchesReference(*left, *right, {0, 1}, {0, 1},
                            sql::JoinType::kLeft, "mixed-type left");
}

TEST_F(JoinRewriteTest, LeftJoinNullExtensionAtMorselBoundaries) {
  // Morsel size is 64 (fixture): 300 left rows span 5 morsels with a short
  // last one. Odd keys never match, so null extensions land on both sides
  // of every morsel boundary (63/64, 127/128, ...), including the first and
  // last row of the probe.
  auto left = MakeKeyed(300, 300, "lv");
  auto right = std::make_shared<Table>();
  Column k(TypeId::kInt64), rv(TypeId::kInt64);
  for (int64_t r = 0; r < 300; r += 2) {
    k.AppendInt(r);
    rv.AppendInt(r * 10);
  }
  right->AddColumn("k", std::move(k));
  right->AddColumn("rv", std::move(rv));
  CheckJoinMatchesReference(*left, *right, {0}, {0}, sql::JoinType::kLeft,
                            "morsel-boundary left join");
}

TEST_F(JoinRewriteTest, DifferentialFuzzVsStringMapReference) {
  Rng rng(20260729);
  for (int iter = 0; iter < 30; ++iter) {
    // Shared key domains per key column; each side independently picks an
    // Int64 or Double representation for numeric domains, so cross-type
    // joins are generated too.
    const size_t num_keys = 1 + rng.NextBounded(2);
    std::vector<bool> domain_is_string(num_keys);
    for (size_t k = 0; k < num_keys; ++k) {
      domain_is_string[k] = rng.NextBounded(4) == 0;
    }
    auto make_side = [&](size_t rows, const char* payload) {
      auto t = std::make_shared<Table>();
      for (size_t k = 0; k < num_keys; ++k) {
        const std::string name = "k" + std::to_string(k);
        if (domain_is_string[k]) {
          Column c(TypeId::kString);
          for (size_t r = 0; r < rows; ++r) {
            if (rng.NextBounded(7) == 0) {
              c.AppendNull();
            } else {
              c.AppendString("s" + std::to_string(rng.NextBounded(5)));
            }
          }
          t->AddColumn(name, std::move(c));
        } else if (rng.NextBounded(2) == 0) {
          Column c(TypeId::kInt64);
          for (size_t r = 0; r < rows; ++r) {
            if (rng.NextBounded(7) == 0) {
              c.AppendNull();
            } else {
              c.AppendInt(rng.NextInRange(-4, 4));
            }
          }
          t->AddColumn(name, std::move(c));
        } else {
          Column c(TypeId::kDouble);
          for (size_t r = 0; r < rows; ++r) {
            const uint64_t pick = rng.NextBounded(16);
            if (pick == 0) {
              c.AppendNull();
            } else if (pick == 1) {
              c.AppendDouble(std::numeric_limits<double>::quiet_NaN());
            } else if (pick == 2) {
              c.AppendDouble(-0.0);
            } else if (pick == 3) {
              c.AppendDouble(0.5);
            } else {
              c.AppendDouble(static_cast<double>(rng.NextInRange(-4, 4)));
            }
          }
          t->AddColumn(name, std::move(c));
        }
      }
      Column p(TypeId::kInt64);
      for (size_t r = 0; r < rows; ++r) p.AppendInt(static_cast<int64_t>(r));
      t->AddColumn(payload, std::move(p));
      return t;
    };
    auto left = make_side(rng.NextBounded(300), "lv");
    auto right = make_side(rng.NextBounded(200), "rv");
    std::vector<int> keys(num_keys);
    for (size_t k = 0; k < num_keys; ++k) keys[k] = static_cast<int>(k);
    const auto type = rng.NextBounded(2) == 0 ? sql::JoinType::kInner
                                              : sql::JoinType::kLeft;
    CheckJoinMatchesReference(*left, *right, keys, keys, type,
                              "fuzz iter " + std::to_string(iter));
  }
}

TEST_F(JoinRewriteTest, DifferentialFuzzWithResidual) {
  // Residual over the payload columns: (lv + rv) % 2 == 0, mirrored exactly
  // in the reference. Exercises the streaming chunked-residual path (with
  // its reused scratch) against the reference's pair-at-a-time filtering,
  // including left-join "all candidates failed" null extension.
  Rng rng(42);
  for (int iter = 0; iter < 10; ++iter) {
    auto left =
        MakeKeyed(static_cast<size_t>(50 + rng.NextBounded(200)),
                  static_cast<int64_t>(1 + rng.NextBounded(20)), "lv");
    auto right =
        MakeKeyed(static_cast<size_t>(30 + rng.NextBounded(150)),
                  static_cast<int64_t>(1 + rng.NextBounded(12)), "rv");
    // Combined schema: k, lv, k, rv -> lv is ordinal 1, rv is ordinal 3.
    auto residual = sql::MakeBinary(
        BinaryOp::kEq,
        sql::MakeBinary(BinaryOp::kMod,
                        sql::MakeBinary(BinaryOp::kAdd, CombinedRef(1),
                                        CombinedRef(3)),
                        sql::MakeIntLit(2)),
        sql::MakeIntLit(0));
    auto residual_ref = [&](size_t lr, size_t rr) {
      const int64_t lv = left->Get(lr, 1).AsInt();
      const int64_t rv = right->Get(rr, 1).AsInt();
      return (lv + rv) % 2 == 0;
    };
    const auto type = rng.NextBounded(2) == 0 ? sql::JoinType::kInner
                                              : sql::JoinType::kLeft;
    CheckJoinMatchesReference(*left, *right, {0}, {0}, type,
                              "residual fuzz iter " + std::to_string(iter),
                              residual.get(), residual_ref);
  }
}

// ---- join output pruning ----------------------------------------------------
// A join emits only the combined columns whose names its statement
// references (docs/INVARIANTS.md, join-output contract). The oracle runs the
// same join inside a `select *` derived table, whose star keeps the join at
// full width, and applies the rest of the statement outside it. Both run
// from the same query seed, so rand() draws compare too; errors must match
// message for message.

TablePtr MakePruneTable(const std::vector<std::string>& names,
                        const std::vector<TypeId>& types, size_t rows,
                        const std::function<Value(size_t, size_t)>& cell) {
  auto t = std::make_shared<Table>();
  for (size_t c = 0; c < names.size(); ++c) t->AddColumn(names[c], types[c]);
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    for (size_t c = 0; c < names.size(); ++c) row.push_back(cell(r, c));
    t->AppendRow(row);
  }
  return t;
}

class JoinPruningTest : public ::testing::Test {
 protected:
  void SetUp() override {
    SetMorselRowsForTest(64);
    using T = TypeId;
    // f: 300 rows over 5 morsels; fk 30..36 never match d, so left joins
    // null-extend on both sides of every morsel boundary. f and d share the
    // column name `tag`.
    auto f_cell = [](size_t r, size_t c) {
      switch (c) {
        case 0: return Value::Int(static_cast<int64_t>(r % 37));
        case 1: return Value::Double(static_cast<double>(r) * 0.25 + 0.1);
        case 2: return Value::String("s" + std::to_string(r % 5));
        case 3:
          return r % 7 == 0 ? Value::Null()
                            : Value::Int(static_cast<int64_t>(r % 11));
        default: return Value::String("ft" + std::to_string(r % 3));
      }
    };
    ASSERT_TRUE(db_.RegisterTable(
                       "f", MakePruneTable({"fk", "fv", "fs", "fn", "tag"},
                                           {T::kInt64, T::kDouble, T::kString,
                                            T::kInt64, T::kString},
                                           300, f_cell))
                    .ok());
    auto d_cell = [](size_t r, size_t c) {
      const auto k = static_cast<int64_t>(r);
      switch (c) {
        case 0: return Value::Int(k);
        case 1: return Value::Double(static_cast<double>(k) * 1.5);
        case 2: return Value::String("d" + std::to_string(k % 4));
        case 3: return Value::String("dt" + std::to_string(k % 2));
        default: return Value::Int(k % 10);
      }
    };
    ASSERT_TRUE(db_.RegisterTable(
                       "d", MakePruneTable({"dk", "dv", "ds", "tag", "dk2"},
                                           {T::kInt64, T::kDouble, T::kString,
                                            T::kString, T::kInt64},
                                           30, d_cell))
                    .ok());
    // e and h: the third and fourth levels of a left-deep chain.
    auto e_cell = [](size_t r, size_t c) {
      const auto k = static_cast<int64_t>(r);
      switch (c) {
        case 0: return Value::Int(k);
        case 1: return Value::Double(0.5 + static_cast<double>(k));
        case 2: return Value::String("e" + std::to_string(k));
        default: return Value::Int(k % 5);
      }
    };
    ASSERT_TRUE(db_.RegisterTable(
                       "e", MakePruneTable({"ek", "ew", "es", "ek2"},
                                           {T::kInt64, T::kDouble, T::kString,
                                            T::kInt64},
                                           10, e_cell))
                    .ok());
    auto h_cell = [](size_t r, size_t c) {
      const auto k = static_cast<int64_t>(r);
      switch (c) {
        case 0: return Value::Int(k);
        case 1: return Value::Double(2.0 - 0.25 * static_cast<double>(k));
        default: return Value::String("h" + std::to_string(k));
      }
    };
    ASSERT_TRUE(db_.RegisterTable(
                       "h", MakePruneTable({"hk", "hw", "hs"},
                                           {T::kInt64, T::kDouble, T::kString},
                                           5, h_cell))
                    .ok());
  }
  void TearDown() override {
    SetMorselRowsForTest(0);
    kernels::SetSimdLevelForTest(kernels::DetectedSimdLevel());
  }

  /// Runs `pruned` and `oracle` from the same query seed at 1/2/8 threads
  /// under scalar and native SIMD dispatch; both must fail with the same
  /// message or return bit-identical results (names included).
  void ExpectMatchesOracle(const std::string& pruned,
                           const std::string& oracle) {
    for (auto level :
         {kernels::SimdLevel::kScalar, kernels::DetectedSimdLevel()}) {
      kernels::SetSimdLevelForTest(level);
      for (int threads : {1, 2, 8}) {
        db_.set_num_threads(threads);
        const std::string what = pruned + " @" + std::to_string(threads) +
                                 " " + kernels::SimdLevelName(level);
        const Rng seeds = db_.rng();
        auto got = db_.Execute(pruned);
        db_.rng() = seeds;
        auto ref = db_.Execute(oracle);
        ASSERT_EQ(ref.ok(), got.ok())
            << what << ": oracle " << ref.status().ToString() << " vs "
            << got.status().ToString();
        if (!ref.ok()) {
          EXPECT_EQ(ref.status().ToString(), got.status().ToString()) << what;
          continue;
        }
        EXPECT_EQ(ref.value().names, got.value().names) << what;
        ExpectTablesBitIdentical(*ref.value().table, *got.value().table, what);
      }
    }
  }

  Database db_{515};
};

TEST_F(JoinPruningTest, UnqualifiedAndQualifiedRefs) {
  ExpectMatchesOracle(
      "select fv, dv from f inner join d on fk = dk",
      "select fv, dv from (select * from f inner join d on fk = dk) as j");
  ExpectMatchesOracle(
      "select f.fv, d.ds, f.fs from f inner join d on f.fk = d.dk "
      "where d.dv > 3",
      "select j.fv, j.ds, j.fs from (select * from f inner join d "
      "on f.fk = d.dk) as j where j.dv > 3");
  // Names match case-insensitively, as Scope::Resolve does.
  ExpectMatchesOracle(
      "select FV, D.DS from f inner join d on F.FK = d.DK where Fn > 3",
      "select FV, J.DS from (select * from f inner join d on F.FK = d.DK) "
      "as j where Fn > 3");
  // A derived table on one side of the join, pruned by the same names.
  ExpectMatchesOracle(
      "select x.fv, dv from (select fk, fv, fs from f where fv > 2) as x "
      "inner join d on x.fk = dk",
      "select fv, dv from (select * from (select fk, fv, fs from f "
      "where fv > 2) as x inner join d on x.fk = dk) as j");
}

TEST_F(JoinPruningTest, SameNameOnBothSidesKeepsAmbiguityAndBothColumns) {
  // Unqualified `tag` names a column of each side: still ambiguous.
  ExpectMatchesOracle(
      "select tag from f inner join d on fk = dk",
      "select tag from (select * from f inner join d on fk = dk) as j");
  ExpectMatchesOracle(
      "select nosuch from f inner join d on fk = dk",
      "select nosuch from (select * from f inner join d on fk = dk) as j");
  // Qualified, both resolve; the oracle's inner star keeps its join whole.
  ExpectMatchesOracle(
      "select f.tag as ft, d.tag as dt, fv from f inner join d on fk = dk",
      "select ft, dt, fv from (select f.tag as ft, d.tag as dt, * from f "
      "inner join d on fk = dk) as j");
  auto rs = db_.Execute("select f.tag as ft, d.tag as dt from f "
                        "inner join d on fk = dk");
  ASSERT_TRUE(rs.ok()) << rs.status().ToString();
  EXPECT_EQ(rs.value().Get(1, 0).AsString(), "ft1");
  EXPECT_EQ(rs.value().Get(1, 1).AsString(), "dt1");
}

TEST_F(JoinPruningTest, QualifiedStarKeepsEveryColumn) {
  // `d.*` turns pruning off; the explicit list is pruned. Same answer.
  ExpectMatchesOracle(
      "select dk, dv, ds, d.tag, dk2, fv from f inner join d on fk = dk",
      "select d.*, fv from f inner join d on fk = dk");
  ExpectMatchesOracle("select fs, fv from f inner join d on fk = dk",
                      "select fs, fv from (select f.* from f inner join d "
                      "on fk = dk) as j");
}

TEST_F(JoinPruningTest, LeftJoinNullExtensionAcrossMorsels) {
  ExpectMatchesOracle(
      "select fv, fs, dv, ds from f left join d on fk = dk",
      "select fv, fs, dv, ds from (select * from f left join d on fk = dk) "
      "as j");
  ExpectMatchesOracle(
      "select fs, count(*) as c, sum(dv) as s from f left join d on fk = dk "
      "group by fs order by fs",
      "select fs, count(*) as c, sum(dv) as s from (select * from f "
      "left join d on fk = dk) as j group by fs order by fs");
}

TEST_F(JoinPruningTest, FourWayLeftDeepChain) {
  // Every level's ON keys (dk2, ek, ek2, hk) are referenced only by the
  // parent's ON, so each level must keep them.
  ExpectMatchesOracle(
      "select fs, sum(fv * hw) as s, count(*) as c from f "
      "inner join d on fk = dk inner join e on dk2 = ek "
      "inner join h on ek2 = hk group by fs order by fs",
      "select fs, sum(fv * hw) as s, count(*) as c from (select * from f "
      "inner join d on fk = dk inner join e on dk2 = ek "
      "inner join h on ek2 = hk) as j group by fs order by fs");
  ExpectMatchesOracle(
      "select fv, es, hs from f left join d on fk = dk "
      "left join e on dk2 = ek inner join h on ek2 = hk",
      "select fv, es, hs from (select * from f left join d on fk = dk "
      "left join e on dk2 = ek inner join h on ek2 = hk) as j");
}

TEST_F(JoinPruningTest, ResidualOnAColumnReferencedNowhereElse) {
  ExpectMatchesOracle(
      "select fv from f inner join d on fk = dk and ds <> 'd2'",
      "select fv from (select * from f inner join d on fk = dk "
      "and ds <> 'd2') as j");
  ExpectMatchesOracle(
      "select fv, dv from f left join d on fk = dk and fn > dv",
      "select fv, dv from (select * from f left join d on fk = dk "
      "and fn > dv) as j");
  // A cross join whose statement references no column keeps one, so a
  // bare count(*) still counts every pair.
  ExpectMatchesOracle(
      "select count(*) as c from f cross join h",
      "select count(*) as c from (select * from f cross join h) as j");
  ExpectMatchesOracle(
      "select count(*) as c from f inner join h on fv > hw",
      "select count(*) as c from (select * from f inner join h "
      "on fv > hw) as j");
}

TEST_F(JoinPruningTest, RandInPushedDownWhere) {
  ExpectMatchesOracle(
      "select fv, dv from f inner join d on fk = dk where rand() < 0.5",
      "select fv, dv from (select * from f inner join d on fk = dk) as j "
      "where rand() < 0.5");
  ExpectMatchesOracle(
      "select fs, count(*) as c from f left join d on fk = dk "
      "where rand() < 0.4 or ds is null group by fs order by fs",
      "select fs, count(*) as c from (select * from f left join d "
      "on fk = dk) as j where rand() < 0.4 or ds is null group by fs "
      "order by fs");
}

TEST_F(JoinPruningTest, UnionAllBranchesPruneIndependently) {
  ExpectMatchesOracle(
      "select fv from f inner join d on fk = dk where dv > 10 "
      "union all select dv from f inner join d on fk = dk where fv < 5",
      "select fv from (select * from f inner join d on fk = dk) as j "
      "where dv > 10 union all select dv from (select * from f "
      "inner join d on fk = dk) as j where fv < 5");
}

TEST_F(JoinPruningTest, ScalarSubqueries) {
  ExpectMatchesOracle(
      "select fv, (select max(dv) from f inner join d on fk = dk "
      "where fs = 's1') as m from f inner join d on fk = dk where ds = 'd0'",
      "select fv, (select max(dv) from (select * from f inner join d "
      "on fk = dk) as j where fs = 's1') as m from (select * from f "
      "inner join d on fk = dk) as j where ds = 'd0'");
  // A subquery in the WHERE keeps it off the pair view: the WHERE runs
  // after the pruned gather, over the pruned scope.
  ExpectMatchesOracle(
      "select fs, dv from f inner join d on fk = dk "
      "where fv > (select avg(dv) from f inner join d on fk = dk)",
      "select fs, dv from (select * from f inner join d on fk = dk) as j "
      "where fv > (select avg(dv) from (select * from f inner join d "
      "on fk = dk) as j)");
}

TEST_F(JoinPruningTest, GroupByAndOrderByOutsideTheSelectList) {
  ExpectMatchesOracle(
      "select sum(fv) as s from f inner join d on fk = dk "
      "group by ds, fs order by sum(fv)",
      "select sum(fv) as s from (select * from f inner join d on fk = dk) "
      "as j group by ds, fs order by sum(fv)");
  ExpectMatchesOracle(
      "select ds as grp, count(*) as c from f inner join d on fk = dk "
      "group by grp order by grp",
      "select ds as grp, count(*) as c from (select * from f inner join d "
      "on fk = dk) as j group by grp order by grp");
  ExpectMatchesOracle(
      "select fs, fv, sum(fv) over (partition by ds) as w from f "
      "inner join d on fk = dk",
      "select fs, fv, sum(fv) over (partition by ds) as w from (select * "
      "from f inner join d on fk = dk) as j");
}

}  // namespace
}  // namespace vdb::engine
