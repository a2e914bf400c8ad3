// Differential tests for the flat SoA aggregation sink: every grouped query
// executed through the flat path (open-addressing group table + typed
// scatter-accumulate lanes, engine/agg_table.h + FlatAggregator) must be
// BIT-identical — doubles compared by bit pattern — to the per-group
// accumulator-object reference path, across:
//
//   - 1, 2 and 8 threads (morsel partials merged in fixed morsel order),
//   - scalar vs. native SIMD dispatch (VDB_SIMD's mechanism),
//   - bitmap vs. selection-vector WHERE masks for grouped queries,
//   - forced hash collisions (SetGroupHashMaskForTest truncates every group
//     hash to a handful of buckets, so correctness rides on the group
//     table's representative-row verification, not on hash quality),
//   - adversarial values: NaN and ±0.0 group keys, full-mantissa doubles,
//     NULL-heavy columns, all-NULL aggregate inputs, and morsel sizes that
//     leave ragged tails.
//
// The object path is the semantic reference (aggregates.h); these tests are
// what pins the flat path to it.

#include <gtest/gtest.h>

#include <algorithm>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "engine/agg_table.h"
#include "engine/aggregates.h"
#include "engine/database.h"
#include "engine/kernels/kernels.h"
#include "engine/planner.h"
#include "engine/table.h"

namespace vdb::engine {
namespace {

constexpr uint64_t kSeed = 20260808;

// ---------------------------------------------------------------------------
// Adversarial input table
// ---------------------------------------------------------------------------

TablePtr BuildAggTable(size_t rows) {
  Rng rng(kSeed);
  auto t = std::make_shared<Table>();
  t->AddColumn("gi", TypeId::kInt64);    // int group key, small domain
  t->AddColumn("gd", TypeId::kDouble);   // double key: NaN, -0.0, NULLs
  t->AddColumn("gs", TypeId::kString);   // string key with NULLs
  t->AddColumn("v", TypeId::kDouble);    // full-mantissa doubles, NULLs
  t->AddColumn("w", TypeId::kInt64);     // int measure with NULLs
  t->AddColumn("z", TypeId::kDouble);    // all NULL
  static const char* kStrs[] = {"a", "b", "ab", "", "long-group-name"};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < rows; ++r) {
    std::vector<Value> row;
    row.push_back(Value::Int(rng.NextInRange(-3, 12)));
    switch (rng.NextBounded(8)) {
      case 0: row.push_back(Value::Double(nan)); break;
      case 1: row.push_back(Value::Double(-0.0)); break;
      case 2: row.push_back(Value::Double(0.0)); break;
      case 3: row.push_back(Value::Null()); break;
      default:
        row.push_back(
            Value::Double(static_cast<double>(rng.NextInRange(-4, 4)) * 0.5));
        break;
    }
    row.push_back(rng.NextBernoulli(0.15)
                      ? Value::Null()
                      : Value::String(kStrs[rng.NextBounded(5)]));
    // Full-mantissa doubles: merge-order sensitivity would show up here.
    row.push_back(rng.NextBernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng.NextDouble() * 1e9 - 5e8));
    row.push_back(rng.NextBernoulli(0.2)
                      ? Value::Null()
                      : Value::Int(rng.NextInRange(-1000, 1000)));
    row.push_back(Value::Null());
    t->AppendRow(row);
  }
  return t;
}

std::unique_ptr<Database> MakeDb(size_t rows, int threads) {
  auto db = std::make_unique<Database>(kSeed);
  db->set_num_threads(threads);
  EXPECT_TRUE(db->RegisterTable("t", BuildAggTable(rows)).ok());
  return db;
}

// Bit-pattern comparison: flat vs. reference must not differ even in the
// sign of a zero or the payload of a NaN.
void ExpectBitIdentical(const ResultSet& ref, const ResultSet& got,
                        const std::string& what) {
  ASSERT_EQ(ref.NumCols(), got.NumCols()) << what;
  ASSERT_EQ(ref.NumRows(), got.NumRows()) << what;
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    for (size_t c = 0; c < ref.NumCols(); ++c) {
      const Value a = ref.Get(r, c);
      const Value b = got.Get(r, c);
      ASSERT_EQ(a.is_null(), b.is_null())
          << what << " cell (" << r << "," << c << ")";
      if (a.is_null()) continue;
      ASSERT_EQ(a.type(), b.type()) << what << " cell (" << r << "," << c
                                    << "): " << a.ToString() << " vs "
                                    << b.ToString();
      if (a.type() == TypeId::kDouble) {
        uint64_t ab, bb;
        const double ad = a.AsDouble(), bd = b.AsDouble();
        std::memcpy(&ab, &ad, 8);
        std::memcpy(&bb, &bd, 8);
        ASSERT_EQ(ab, bb) << what << " cell (" << r << "," << c
                          << "): " << ad << " vs " << bd;
      } else {
        ASSERT_TRUE(a.Equals(b)) << what << " cell (" << r << "," << c
                                 << "): " << a.ToString() << " vs "
                                 << b.ToString();
      }
    }
  }
}

// Restores every knob the tests twist, so suites sharing the binary see
// defaults.
class FlatAggTest : public ::testing::Test {
 protected:
  void SetUp() override {
    detected_ = kernels::DetectedSimdLevel();
    SetMorselRowsForTest(257);  // ragged tails on every morsel boundary
  }
  void TearDown() override {
    SetMorselRowsForTest(0);
    SetFlatAggSinkForTest(true);
    SetGroupedWhereBitmapForTest(true);
    SetGroupHashMaskForTest(~0ull);
    kernels::SetSimdLevelForTest(detected_);
  }
  kernels::SimdLevel detected_ = kernels::SimdLevel::kScalar;
};

const char* const kGroupQueries[] = {
    "select gi, count(*) as c, sum(v) as s from t group by gi",
    "select gd, count(*) as c, sum(v) as s, min(v) as mn, max(v) as mx "
    "from t group by gd",
    "select gi, gd, avg(v) as a, sum(w) as sw from t group by gi, gd",
    "select gs, count(w) as cw, var_samp(v) as vv, stddev(v) as sd "
    "from t group by gs",
    "select gi, gs, min(w) as mn, max(w) as mx, avg(w) as aw "
    "from t group by gi, gs",
    "select gi, sum(z) as sz, count(z) as cz, min(z) as mz, avg(z) as az "
    "from t group by gi",
    "select gi, count(*) as c, sum(v) as s from t "
    "where w > 0 and v < 2.5e8 group by gi",
    "select gd, gs, sum(v) as s, count(*) as c from t "
    "where gi >= 0 group by gd, gs",
    "select count(*) as c, sum(v) as s, min(v) as mn, max(w) as mx, "
    "avg(v) as av from t",
    "select gi, count(*) as c from t where v > 1e18 group by gi",  // empty
    // Derived-table shape (the AQP rewriter's): projection pruning keeps
    // only gi/v/sid of the six-column `select *` expansion.
    "select gi, sid, sum(v) as s, count(*) as c from "
    "(select *, 1 + floor(rand() * 7) as sid from t) as d group by gi, sid",
    // Wide-range twins of the small-domain keys above: gi * 1000003 + 7
    // spans ~15M values, past the dense arm's slot bound, so these group
    // through the hash arm and keep the collision tests below on its
    // verification path (IntRowsEqual; NumRowsEqual for the NULL-free
    // Double key (gi % 3) * 0.5, which is coarser than gi).
    "select gi * 1000003 + 7 as gk, count(*) as c, sum(v) as s from t "
    "group by gi * 1000003 + 7",
    "select gi * 1000003 + 7 as gk, min(w) as mn, max(w) as mx, "
    "avg(w) as aw from t group by gi * 1000003 + 7",
    "select gi * 1000003 + 7 as gk, sid * 1000003 + 7 as sk, sum(v) as s, "
    "count(*) as c from (select *, 1 + floor(rand() * 7) as sid from t) as d "
    "group by gi * 1000003 + 7, sid * 1000003 + 7",
    "select gi * 1000003 + 7 as gk, (gi % 3) * 0.5 as gh, count(*) as c, "
    "sum(v) as s from t group by gi * 1000003 + 7, (gi % 3) * 0.5",
};

// The reference for every differential test: object-accumulator sink,
// serial, native SIMD, full group hashes.
ResultSet RunReference(size_t rows, const std::string& sql) {
  SetFlatAggSinkForTest(false);
  auto db = MakeDb(rows, 1);
  auto ref = db->Execute(sql);
  SetFlatAggSinkForTest(true);
  EXPECT_TRUE(ref.ok()) << sql << " -> " << ref.status().ToString();
  return std::move(ref).ValueOrDie();
}

TEST_F(FlatAggTest, FlatMatchesReferenceAcrossThreadsAndSimd) {
  const size_t kRows = 5003;  // prime: ragged final morsel
  std::vector<kernels::SimdLevel> levels{kernels::SimdLevel::kScalar};
  if (detected_ != kernels::SimdLevel::kScalar) levels.push_back(detected_);
  for (const char* sql : kGroupQueries) {
    const ResultSet ref = RunReference(kRows, sql);
    for (kernels::SimdLevel level : levels) {
      kernels::SetSimdLevelForTest(level);
      for (int threads : {1, 2, 8}) {
        auto db = MakeDb(kRows, threads);
        auto got = db->Execute(sql);
        ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
        ExpectBitIdentical(ref, got.value(),
                           std::string(sql) + " @" + std::to_string(threads) +
                               " threads, " + kernels::SimdLevelName(level));
        if (::testing::Test::HasFatalFailure()) return;
      }
      kernels::SetSimdLevelForTest(detected_);
    }
  }
}

TEST_F(FlatAggTest, BitmapAndSelectionVectorMasksAgree) {
  const size_t kRows = 4096;  // exact morsel multiples with morsel 256
  SetMorselRowsForTest(256);
  const char* const kSelective[] = {
      // High selectivity: nearly all rows survive.
      "select gi, sum(v) as s, count(*) as c from t where w > -999 group by gi",
      // Low selectivity: sparse survivors exercise rank-select decomposition.
      "select gi, gd, sum(v) as s, count(*) as c from t "
      "where w > 900 group by gi, gd",
      // Predicate on the group key itself.
      "select gs, avg(v) as a, max(w) as mx from t "
      "where gd = 0.0 group by gs",
  };
  for (const char* sql : kSelective) {
    const ResultSet ref = RunReference(kRows, sql);
    for (bool bitmap : {true, false}) {
      SetGroupedWhereBitmapForTest(bitmap);
      for (int threads : {1, 2, 8}) {
        auto db = MakeDb(kRows, threads);
        auto got = db->Execute(sql);
        ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
        ExpectBitIdentical(ref, got.value(),
                           std::string(sql) + " @" + std::to_string(threads) +
                               " threads, bitmap=" + (bitmap ? "on" : "off"));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
    SetGroupedWhereBitmapForTest(true);
  }
}

TEST_F(FlatAggTest, ForcedHashCollisionsStillGroupCorrectly) {
  const size_t kRows = 3001;
  // Reference runs with honest 64-bit hashes; the flat runs squeeze every
  // group hash into 8, then 1, bucket(s). Results must not move: collided
  // groups are separated by the representative-row key verification.
  for (const char* sql : kGroupQueries) {
    const ResultSet ref = RunReference(kRows, sql);
    for (uint64_t mask : {uint64_t{0x7}, uint64_t{0}}) {
      SetGroupHashMaskForTest(mask);
      for (int threads : {1, 8}) {
        auto db = MakeDb(kRows, threads);
        auto got = db->Execute(sql);
        ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
        ExpectBitIdentical(ref, got.value(),
                           std::string(sql) + " mask=" + std::to_string(mask) +
                               " @" + std::to_string(threads) + " threads");
        if (::testing::Test::HasFatalFailure()) return;
      }
      SetGroupHashMaskForTest(~0ull);
    }
  }
}

TEST_F(FlatAggTest, NanNegativeZeroAndNullKeysGroupTogether) {
  // ValueGroupKey equivalence, pinned on the flat path: -0.0 groups with
  // +0.0, NaN with NaN, NULL with NULL — and 5 (int) with 5.0 (double)
  // is exercised via the mixed-type gi+gd key in the fuzz above.
  auto t = std::make_shared<Table>();
  t->AddColumn("d", TypeId::kDouble);
  t->AddColumn("v", TypeId::kInt64);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  t->AppendRow({Value::Double(0.0), Value::Int(1)});
  t->AppendRow({Value::Double(-0.0), Value::Int(2)});
  t->AppendRow({Value::Double(nan), Value::Int(4)});
  t->AppendRow({Value::Null(), Value::Int(8)});
  t->AppendRow({Value::Double(nan), Value::Int(16)});
  t->AppendRow({Value::Double(1.0), Value::Int(32)});
  t->AppendRow({Value::Null(), Value::Int(64)});
  for (bool flat : {true, false}) {
    SetFlatAggSinkForTest(flat);
    Database db(kSeed);
    ASSERT_TRUE(db.RegisterTable("k", t).ok());
    auto rs = db.Execute("select d, count(*) as c, sum(v) as s from k "
                         "group by d");
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    const ResultSet& r = rs.value();
    ASSERT_EQ(r.NumRows(), 4u) << "flat=" << flat;
    // First-occurrence group order: 0.0, NaN, NULL, 1.0.
    EXPECT_EQ(r.Get(0, 2).AsInt(), 3) << "±0.0 group, flat=" << flat;
    EXPECT_EQ(r.Get(1, 2).AsInt(), 20) << "NaN group, flat=" << flat;
    EXPECT_EQ(r.Get(2, 2).AsInt(), 72) << "NULL group, flat=" << flat;
    EXPECT_EQ(r.Get(3, 2).AsInt(), 32) << "flat=" << flat;
  }
}

TEST_F(FlatAggTest, AllNullAggregateInputs) {
  // sum/avg/min/max of an all-NULL column are NULL; count is 0 — on both
  // sinks, serial and parallel.
  const size_t kRows = 1500;
  const char* sql =
      "select gi, sum(z) as s, avg(z) as a, min(z) as mn, max(z) as mx, "
      "count(z) as c from t group by gi";
  const ResultSet ref = RunReference(kRows, sql);
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    EXPECT_TRUE(ref.Get(r, 1).is_null());
    EXPECT_TRUE(ref.Get(r, 2).is_null());
    EXPECT_TRUE(ref.Get(r, 3).is_null());
    EXPECT_TRUE(ref.Get(r, 4).is_null());
    EXPECT_EQ(ref.Get(r, 5).AsInt(), 0);
  }
  for (int threads : {1, 8}) {
    auto db = MakeDb(kRows, threads);
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << got.status().ToString();
    ExpectBitIdentical(ref, got.value(),
                       std::string("all-null @") + std::to_string(threads));
  }
}

TEST_F(FlatAggTest, DerivedTableProjectionPruning) {
  // The planner prunes derived-table outputs the outer statement never
  // references (ExecuteFrom). Pruning must be invisible: same values as
  // the explicit-select-list spelling, row counts preserved when nothing
  // is referenced, and `select *` outers disable it entirely.
  const size_t kRows = 2048;

  // Pruned spelling vs. explicit spelling — bit-identical, rand() included
  // (draws are (row, site)-addressed; both queries have one rand site).
  // Each query runs first on a fresh identically-seeded database so both
  // draw the same per-query seed.
  auto a = MakeDb(kRows, 2)->Execute(
      "select gi, sid, sum(v) as s, count(*) as c from "
      "(select *, 1 + floor(rand() * 5) as sid from t) as d group by gi, sid");
  auto b = MakeDb(kRows, 2)->Execute(
      "select gi, sid, sum(v) as s, count(*) as c from "
      "(select gi, v, 1 + floor(rand() * 5) as sid from t) as d "
      "group by gi, sid");
  auto db = MakeDb(kRows, 2);
  ASSERT_TRUE(a.ok()) << a.status().ToString();
  ASSERT_TRUE(b.ok()) << b.status().ToString();
  ExpectBitIdentical(a.value(), b.value(), "pruned vs explicit select list");

  // Outer references no derived column: the row count must survive.
  auto c = db->Execute("select count(*) as c from (select * from t) as d");
  ASSERT_TRUE(c.ok()) << c.status().ToString();
  EXPECT_EQ(c.value().Get(0, 0).AsInt(), static_cast<int64_t>(kRows));

  // `select *` outer wants every column: pruning is disabled.
  auto e = db->Execute("select * from (select * from t) as d limit 3");
  ASSERT_TRUE(e.ok()) << e.status().ToString();
  EXPECT_EQ(e.value().NumCols(), 6u);

  // DISTINCT derived tables are never pruned (dropping a column would
  // change the distinct row set).
  auto f = db->Execute(
      "select count(*) as c from (select distinct gi, gs from t) as d");
  auto g = db->Execute(
      "select count(*) as c, min(gi) as m from "
      "(select distinct gi, gs from t) as d");
  ASSERT_TRUE(f.ok()) << f.status().ToString();
  ASSERT_TRUE(g.ok()) << g.status().ToString();
  EXPECT_EQ(f.value().Get(0, 0).AsInt(), g.value().Get(0, 0).AsInt());
}

TEST_F(FlatAggTest, TinyMorselsAndTinyTables) {
  // Morsel sizes far below a batch plus row counts around the boundaries:
  // 0 rows, 1 row, exactly one morsel, one morsel ± 1.
  const char* sql =
      "select gi, gd, count(*) as c, sum(v) as s, min(w) as mn "
      "from t group by gi, gd";
  for (size_t morsel : {size_t{1}, size_t{7}, size_t{64}}) {
    for (size_t rows : {size_t{0}, size_t{1}, morsel, morsel + 1, 4 * morsel + 3}) {
      SetMorselRowsForTest(morsel);
      const ResultSet ref = RunReference(rows, sql);
      for (int threads : {1, 2, 8}) {
        auto db = MakeDb(rows, threads);
        auto got = db->Execute(sql);
        ASSERT_TRUE(got.ok()) << got.status().ToString();
        ExpectBitIdentical(ref, got.value(),
                           "morsel=" + std::to_string(morsel) + " rows=" +
                               std::to_string(rows) + " @" +
                               std::to_string(threads));
        if (::testing::Test::HasFatalFailure()) return;
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Typed grouped output vs. an independent oracle
// ---------------------------------------------------------------------------
//
// The differential tests above pin the flat sink to the object sink, but the
// two now share the key gather and the merge table. These pin both to a
// naive oracle that shares nothing with them: an ordered map from the
// ValueGroupKey tuple of each key to its group, in first-occurrence order,
// with per-morsel Neumaier partials merged in morsel order exactly as the
// engine's contract states. Keys, column types, null masks, group order and
// aggregate bits must all match.

/// Every raw cell of a column, placeholders under NULL included.
void ExpectSameColumn(const Column& want, const Column& got,
                      const std::string& what) {
  ASSERT_EQ(want.type(), got.type()) << what;
  ASSERT_EQ(want.size(), got.size()) << what;
  ASSERT_EQ(want.NullData() == nullptr, got.NullData() == nullptr)
      << what << ": null mask presence";
  for (size_t r = 0; r < want.size(); ++r) {
    ASSERT_EQ(want.IsNull(r), got.IsNull(r)) << what << " row " << r;
    switch (want.type()) {
      case TypeId::kNull:
        break;
      case TypeId::kBool:
      case TypeId::kInt64:
        ASSERT_EQ(want.GetInt(r), got.GetInt(r)) << what << " row " << r;
        break;
      case TypeId::kDouble: {
        uint64_t a, b;
        const double x = want.GetDouble(r), y = got.GetDouble(r);
        std::memcpy(&a, &x, 8);
        std::memcpy(&b, &y, 8);
        ASSERT_EQ(a, b) << what << " row " << r << ": " << x << " vs " << y;
        break;
      }
      case TypeId::kString:
        ASSERT_EQ(want.GetString(r), got.GetString(r)) << what << " row " << r;
        break;
    }
  }
}

constexpr size_t kOracleRows = 40000;  // default morsel size + a ragged tail

/// id, k (small int domain), s (strings + NULLs), d (NaN, ±0.0, NULL, ...),
/// v (full-mantissa doubles + NULLs), w (ints + NULLs).
TablePtr BuildOracleTable() {
  Rng rng(kSeed + 1);
  auto t = std::make_shared<Table>();
  for (const char* name : {"id", "k", "w"}) t->AddColumn(name, TypeId::kInt64);
  t->AddColumn("s", TypeId::kString);
  t->AddColumn("d", TypeId::kDouble);
  t->AddColumn("v", TypeId::kDouble);
  static const char* kStrs[] = {"a", "b", "", "ab"};
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < kOracleRows; ++r) {
    Value d;
    switch (rng.NextBounded(6)) {
      case 0: d = Value::Double(nan); break;
      case 1: d = Value::Double(-0.0); break;
      case 2: d = Value::Double(0.0); break;
      case 3: d = Value::Null(); break;
      default: d = Value::Double(static_cast<double>(rng.NextInRange(-2, 2)));
    }
    t->AppendRow({Value::Int(static_cast<int64_t>(r)),
                  Value::Int(rng.NextInRange(-2, 2)),
                  rng.NextBernoulli(0.1) ? Value::Null()
                                         : Value::Int(rng.NextInRange(-50, 50)),
                  rng.NextBernoulli(0.1) ? Value::Null()
                                         : Value::String(kStrs[rng.NextBounded(4)]),
                  d,
                  rng.NextBernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng.NextDouble() * 1e9 - 5e8)});
  }
  return t;
}

/// One GROUP BY shape: its key expressions in SQL and the oracle's value of
/// each key at a table row.
struct OracleShape {
  std::string keys_sql;
  std::function<std::vector<Value>(const Table&, size_t)> keys;
};

/// Key column `name` of row r.
Value Cell(const Table& t, const char* name, size_t r) {
  return t.column(static_cast<size_t>(t.ColumnIndex(name))).Get(r);
}

std::vector<OracleShape> OracleShapes() {
  return {
      // NULL for the first 7 rows, then Int64 for 7, then Double: with
      // 7-row morsels the key column changes type across morsels (kNull,
      // Int64, Double), and integral doubles must merge with the Int64 keys.
      {"case when id < 7 then null when id < 14 then k "
       "else k + (id % 2) * 0.5 end",
       [](const Table& t, size_t r) -> std::vector<Value> {
         const int64_t k = Cell(t, "k", r).AsInt();
         if (r < 7) return {Value::Null()};
         if (r < 14) return {Value::Int(k)};
         return {Value::Double(static_cast<double>(k) +
                               static_cast<double>(r % 2) * 0.5)};
       }},
      {"s", [](const Table& t, size_t r) -> std::vector<Value> {
         return {Cell(t, "s", r)};
       }},
      {"s, k", [](const Table& t, size_t r) -> std::vector<Value> {
         return {Cell(t, "s", r), Cell(t, "k", r)};
       }},
      {"d", [](const Table& t, size_t r) -> std::vector<Value> {
         return {Cell(t, "d", r)};
       }},
      {"d, s, k", [](const Table& t, size_t r) -> std::vector<Value> {
         return {Cell(t, "d", r), Cell(t, "s", r), Cell(t, "k", r)};
       }},
  };
}

/// Naive grouped aggregation: count(*), sum(v), sum(w) per key tuple.
struct OracleGroup {
  std::vector<Value> key;  // first occurrence
  int64_t count = 0;
  double sv = 0, cv = 0, sw = 0, cw = 0;  // Neumaier (sum, comp) pairs
  bool any_v = false, any_w = false;
};

void Neumaier(double& sum, double& comp, double x) {
  const double t = sum + x;
  comp += std::abs(sum) >= std::abs(x) ? (sum - t) + x : (x - t) + sum;
  sum = t;
}

std::vector<OracleGroup> RunOracle(const Table& t, const OracleShape& shape,
                                   size_t morsel_rows) {
  const Column& v = t.column(static_cast<size_t>(t.ColumnIndex("v")));
  const Column& w = t.column(static_cast<size_t>(t.ColumnIndex("w")));
  auto key_of = [](const std::vector<Value>& key) {
    std::vector<std::string> out;
    for (const Value& x : key) out.push_back(ValueGroupKey(x));
    return out;
  };
  std::vector<OracleGroup> global;
  std::map<std::vector<std::string>, size_t> global_index;
  for (size_t begin = 0; begin < t.num_rows(); begin += morsel_rows) {
    const size_t end = std::min(t.num_rows(), begin + morsel_rows);
    std::vector<OracleGroup> local;
    std::map<std::vector<std::string>, size_t> local_index;
    for (size_t r = begin; r < end; ++r) {
      std::vector<Value> key = shape.keys(t, r);
      auto [it, fresh] = local_index.emplace(key_of(key), local.size());
      if (fresh) local.push_back(OracleGroup{key});
      OracleGroup& g = local[it->second];
      ++g.count;
      if (!v.IsNull(r)) {
        g.any_v = true;
        Neumaier(g.sv, g.cv, v.GetDouble(r));
      }
      if (!w.IsNull(r)) {
        g.any_w = true;
        Neumaier(g.sw, g.cw, static_cast<double>(w.GetInt(r)));
      }
    }
    for (OracleGroup& lg : local) {
      auto [it, fresh] = global_index.emplace(key_of(lg.key), global.size());
      if (fresh) {
        global.push_back(lg);  // a first occurrence is copied, not merged
        continue;
      }
      OracleGroup& g = global[it->second];
      g.count += lg.count;
      Neumaier(g.sv, g.cv, lg.sv);
      Neumaier(g.sv, g.cv, lg.cv);
      Neumaier(g.sw, g.cw, lg.sw);
      Neumaier(g.sw, g.cw, lg.cw);
      g.any_v = g.any_v || lg.any_v;
      g.any_w = g.any_w || lg.any_w;
    }
  }
  return global;
}

/// The expected result columns: keys, count(*), sum(v), sum(w), built with
/// Column::Append in group order.
std::vector<Column> OracleColumns(const std::vector<OracleGroup>& groups,
                                  size_t num_keys) {
  std::vector<Column> cols(num_keys + 3);
  for (const OracleGroup& g : groups) {
    for (size_t i = 0; i < num_keys; ++i) cols[i].Append(g.key[i]);
    cols[num_keys].Append(Value::Int(g.count));
    cols[num_keys + 1].Append(g.any_v ? Value::Double(g.sv + g.cv)
                                      : Value::Null());
    cols[num_keys + 2].Append(
        g.any_w ? Value::Int(static_cast<int64_t>(std::llround(g.sw + g.cw)))
                : Value::Null());
  }
  return cols;
}

TEST_F(FlatAggTest, TypedGroupedOutputMatchesNaiveOracle) {
  const TablePtr table = BuildOracleTable();
  SetMorselRowsForTest(0);
  const size_t default_morsel = MorselRows();
  ASSERT_LT(default_morsel, kOracleRows) << "default size must split the input";
  for (const OracleShape& shape : OracleShapes()) {
    const size_t num_keys = shape.keys(*table, 0).size();
    // Keys are grouped directly (not through a derived table), so each
    // morsel evaluates them itself and a CASE key takes its type per morsel.
    const std::string sql = "select " + shape.keys_sql +
                            ", count(*) as c, sum(v) as sv, sum(w) as sw "
                            "from o group by " + shape.keys_sql;
    for (size_t morsel : {kOracleRows, size_t{7}, default_morsel}) {
      SetMorselRowsForTest(morsel);
      const std::vector<Column> want =
          OracleColumns(RunOracle(*table, shape, morsel), num_keys);
      for (uint64_t mask : {~uint64_t{0}, uint64_t{0x3}}) {
        SetGroupHashMaskForTest(mask);
        for (bool flat : {true, false}) {
          SetFlatAggSinkForTest(flat);
          for (int threads : {1, 2, 8}) {
            Database db(kSeed);
            db.set_num_threads(threads);
            ASSERT_TRUE(db.RegisterTable("o", table).ok());
            auto got = db.Execute(sql);
            ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
            const Table& out = *got.value().table;
            ASSERT_EQ(out.num_columns(), want.size()) << sql;
            for (size_t c = 0; c < want.size(); ++c) {
              ExpectSameColumn(want[c], out.column(c),
                               sql + " col " + std::to_string(c) +
                                   " morsel=" + std::to_string(morsel) +
                                   " mask=" + std::to_string(mask) +
                                   (flat ? " flat" : " object") + " @" +
                                   std::to_string(threads));
              if (::testing::Test::HasFatalFailure()) return;
            }
          }
        }
        SetFlatAggSinkForTest(true);
      }
      SetGroupHashMaskForTest(~0ull);
    }
  }
}

TEST_F(FlatAggTest, LaterMorselFirstOccurrenceIsCopiedNotMerged) {
  // Group 1 first appears in morsel 1 and repeats in morsel 2. Its morsel-1
  // Neumaier state must be copied into the global slot: merging it into an
  // empty state instead re-rounds, and with these magnitudes the final sum
  // then differs in the last bit.
  const std::vector<double> first = {6612079156963981.0, 5698047861365940.0,
                                     8975430504727093.0};
  const std::vector<double> repeat = {-8369800745865843.0,
                                      -1.1920442645465444e-16};
  auto t = std::make_shared<Table>();
  for (const char* name : {"k", "w"}) t->AddColumn(name, TypeId::kInt64);
  t->AddColumn("v", TypeId::kDouble);
  auto add_morsel = [&](const std::vector<double>& group1) {
    for (size_t r = 0; r < 7; ++r) {
      const bool g1 = r < group1.size();
      t->AppendRow({Value::Int(g1 ? 1 : 0), Value::Int(0),
                    Value::Double(g1 ? group1[r] : 1.0)});
    }
  };
  add_morsel({});
  add_morsel(first);
  add_morsel(repeat);

  // The two semantics really differ on this data.
  double fs = 0, fc = 0, rs = 0, rc = 0;
  for (double x : first) Neumaier(fs, fc, x);
  for (double x : repeat) Neumaier(rs, rc, x);
  double copy_s = fs, copy_c = fc, merged_s = 0, merged_c = 0;
  Neumaier(merged_s, merged_c, fs);
  Neumaier(merged_s, merged_c, fc);
  for (double x : {rs, rc}) {
    Neumaier(copy_s, copy_c, x);
    Neumaier(merged_s, merged_c, x);
  }
  ASSERT_NE(copy_s + copy_c, merged_s + merged_c);

  const OracleShape shape{"k", [](const Table& tab, size_t r) {
                            return std::vector<Value>{Cell(tab, "k", r)};
                          }};
  SetMorselRowsForTest(7);
  const std::vector<Column> want = OracleColumns(RunOracle(*t, shape, 7), 1);
  ASSERT_EQ(want[2].GetDouble(1), copy_s + copy_c);
  for (bool flat : {true, false}) {
    SetFlatAggSinkForTest(flat);
    for (int threads : {1, 8}) {
      Database db(kSeed);
      db.set_num_threads(threads);
      ASSERT_TRUE(db.RegisterTable("o", t).ok());
      auto got = db.Execute(
          "select k, count(*) as c, sum(v) as sv, sum(w) as sw from o "
          "group by k");
      ASSERT_TRUE(got.ok()) << got.status().ToString();
      for (size_t c = 0; c < want.size(); ++c) {
        ExpectSameColumn(want[c], got.value().table->column(c),
                         "col " + std::to_string(c) + (flat ? " flat" : " object") +
                             " @" + std::to_string(threads));
      }
    }
  }
}

// ---------------------------------------------------------------------------
// Typed building blocks vs. their per-value definitions
// ---------------------------------------------------------------------------

/// A column of `n` cells of `type` (kBool/kInt64/kDouble/kString/kNull)
/// with NULLs at probability p_null, drawn from small domains so groups
/// repeat; doubles include NaN and ±0.0.
Column FuzzColumn(Rng* rng, TypeId type, size_t n, double p_null) {
  Column c(type);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < n; ++r) {
    if (type == TypeId::kNull || rng->NextBernoulli(p_null)) {
      c.AppendNull();
      continue;
    }
    switch (type) {
      case TypeId::kBool: c.Append(Value::Bool(rng->NextBernoulli(0.5))); break;
      case TypeId::kInt64: c.AppendInt(rng->NextInRange(-3, 3)); break;
      case TypeId::kDouble: {
        const uint64_t pick = rng->NextBounded(5);
        c.AppendDouble(pick == 0   ? nan
                       : pick == 1 ? -0.0
                                   : static_cast<double>(rng->NextInRange(-2, 2)) * 0.75);
        break;
      }
      case TypeId::kString: c.AppendString(rng->NextBernoulli(0.5) ? "x" : "yz"); break;
      case TypeId::kNull: break;
    }
  }
  return c;
}

const TypeId kAllTypes[] = {TypeId::kNull, TypeId::kBool, TypeId::kInt64,
                            TypeId::kDouble, TypeId::kString};

TEST(TypedColumnTest, AppendSelectedValuesEqualsPerValueAppend) {
  Rng rng(kSeed + 2);
  for (int trial = 0; trial < 400; ++trial) {
    // A destination already holding a prefix (possibly NULL-only or of
    // another type), then a selected gather from a source of any type.
    const TypeId dst_type = kAllTypes[rng.NextBounded(5)];
    const TypeId src_type = kAllTypes[rng.NextBounded(5)];
    const double p_null = rng.NextBernoulli(0.3) ? 0.0 : rng.NextDouble();
    const Column prefix = FuzzColumn(&rng, dst_type, rng.NextBounded(4), p_null);
    const Column src = FuzzColumn(&rng, src_type, 40, p_null);
    const size_t base = rng.NextBounded(5);
    std::vector<uint32_t> rows;
    for (uint32_t r = 0; r + base < src.size(); ++r) {
      if (rng.NextBernoulli(0.4)) rows.push_back(r);
    }
    Column want, got;
    for (size_t r = 0; r < prefix.size(); ++r) {
      want.Append(prefix.Get(r));
      got.Append(prefix.Get(r));
    }
    for (uint32_t r : rows) want.Append(src.Get(base + r));
    got.AppendSelectedValues(src, base, rows.data(), rows.size());
    ExpectSameColumn(want, got, "trial " + std::to_string(trial));
    if (::testing::Test::HasFatalFailure()) return;
  }
}

TEST(TypedColumnTest, FinalizeColumnEqualsFinalizeGroupAppendLoop) {
  Rng rng(kSeed + 3);
  sql::Expr arg;  // non-null: count(x) rather than count(*)
  const char* const kAggs[] = {"count", "sum", "avg", "min",
                               "max", "var_samp", "stddev"};
  for (int trial = 0; trial < 300; ++trial) {
    for (const char* name : kAggs) {
      AggSpec spec;
      spec.name = name;
      spec.arg = (std::string(name) == "count" && rng.NextBernoulli(0.5))
                     ? nullptr
                     : &arg;
      const size_t groups = rng.NextBounded(4) == 0 ? rng.NextBounded(2)
                                                    : 1 + rng.NextBounded(30);
      // Two partials fed batches of differing argument types (so sums mix
      // Int64 and Double groups, and min/max mix value types), the second
      // merged into the first; some groups never see a value.
      std::unique_ptr<FlatAggregator> parts[2];
      for (auto& part : parts) {
        part = CreateFlatAggregator(spec);
        ASSERT_NE(part, nullptr) << name;
        part->ResizeGroups(groups);
        if (groups == 0) continue;
        const int batches = static_cast<int>(rng.NextBounded(3));
        for (int b = 0; b < batches; ++b) {
          TypeId type = kAllTypes[rng.NextBounded(5)];
          if (type == TypeId::kString && std::string(name) != "min" &&
              std::string(name) != "max") {
            type = TypeId::kInt64;  // strings only reach min/max
          }
          const size_t n = rng.NextBounded(50);
          const Column col = FuzzColumn(&rng, type, n, rng.NextDouble() * 0.5);
          std::vector<uint32_t> gids(n);
          const size_t touched = 1 + rng.NextBounded(groups);
          for (auto& g : gids) g = static_cast<uint32_t>(rng.NextBounded(touched));
          part->AddScatter(spec.arg == nullptr ? nullptr : &col, 0, gids.data(), n);
        }
      }
      // Partial 1's groups land on a shuffled mix of existing and fresh gids.
      std::vector<uint32_t> dst(groups);
      std::vector<uint32_t> pool;
      for (uint32_t g = 0; g < groups; ++g) pool.push_back(g);
      size_t fresh = 0;
      for (size_t k = 0; k < groups; ++k) {
        if (!pool.empty() && rng.NextBernoulli(0.6)) {
          const size_t i = rng.NextBounded(pool.size());
          dst[k] = pool[i];
          pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
        } else {
          dst[k] = static_cast<uint32_t>(groups + fresh++);
        }
      }
      parts[0]->MergePartial(*parts[1], dst.data(), dst.size(), groups + fresh);
      Column want;
      for (uint32_t g = 0; g < groups + fresh; ++g) {
        want.Append(parts[0]->FinalizeGroup(g));
      }
      ExpectSameColumn(want, parts[0]->FinalizeColumn(),
                       std::string(name) + " trial " + std::to_string(trial));
      if (::testing::Test::HasFatalFailure()) return;
    }
  }
}

TEST(TypedColumnTest, FlatDistinctCountEqualsPerGroupValueSets) {
  // FlatDistinctCountAgg against per-group Value sets under GroupValuesEqual:
  // partials fed several batches of differing argument types (Int64 keys
  // past 2^53 then Doubles, strings after numbers — the pair table's lossy
  // appends), through both scatter forms, one merged into the other on a
  // shuffled mix of existing and fresh gids, under honest and fully
  // colliding hashes.
  Rng rng(kSeed + 6);
  sql::Expr arg;
  AggSpec spec;
  spec.name = "count";
  spec.distinct = true;
  spec.arg = &arg;
  const int64_t big = int64_t{1} << 53;
  auto insert = [](std::vector<Value>* set, const Value& v) {
    for (const Value& x : *set) {
      if (GroupValuesEqual(x, v)) return;
    }
    set->push_back(v);
  };
  for (int trial = 0; trial < 300; ++trial) {
    SetGroupHashMaskForTest(trial % 3 == 0 ? uint64_t{0} : ~uint64_t{0});
    const size_t groups = 1 + rng.NextBounded(8);
    std::vector<std::vector<Value>> sets[2];
    std::unique_ptr<FlatAggregator> parts[2];
    for (int p = 0; p < 2; ++p) {
      sets[p].resize(groups);
      parts[p] = CreateFlatAggregator(spec);
      ASSERT_NE(parts[p], nullptr);
      parts[p]->ResizeGroups(groups);
      const int batches = static_cast<int>(rng.NextBounded(4));
      for (int b = 0; b < batches; ++b) {
        const size_t n = rng.NextBounded(40);
        Column col;
        const uint64_t kind = rng.NextBounded(7);
        if (kind < 5) {
          col = FuzzColumn(&rng, kAllTypes[kind], n, rng.NextDouble() * 0.3);
        } else {
          for (size_t r = 0; r < n; ++r) {
            const int64_t off = rng.NextInRange(0, 3);
            col.Append(kind == 5 ? Value::Int(big + off)
                                 : Value::Double(static_cast<double>(big + off)));
          }
        }
        std::vector<uint32_t> gids, rows;
        for (uint32_t r = 0; r < n; ++r) {
          if (rng.NextBernoulli(0.7)) rows.push_back(r);
        }
        const bool selected = rng.NextBernoulli(0.5);
        const size_t m = selected ? rows.size() : n;
        for (size_t k = 0; k < m; ++k) {
          gids.push_back(static_cast<uint32_t>(rng.NextBounded(groups)));
          const Value v = col.Get(selected ? rows[k] : k);
          if (!v.is_null()) insert(&sets[p][gids[k]], v);
        }
        if (selected) {
          parts[p]->AddScatterSelected(&col, 0, rows.data(), gids.data(), m);
        } else {
          parts[p]->AddScatter(&col, 0, gids.data(), m);
        }
      }
    }
    std::vector<uint32_t> dst(groups);
    std::vector<uint32_t> pool;
    for (uint32_t g = 0; g < groups; ++g) pool.push_back(g);
    size_t fresh = 0;
    for (size_t k = 0; k < groups; ++k) {
      if (!pool.empty() && rng.NextBernoulli(0.6)) {
        const size_t i = rng.NextBounded(pool.size());
        dst[k] = pool[i];
        pool.erase(pool.begin() + static_cast<std::ptrdiff_t>(i));
      } else {
        dst[k] = static_cast<uint32_t>(groups + fresh++);
      }
    }
    parts[0]->MergePartial(*parts[1], dst.data(), dst.size(), groups + fresh);
    std::vector<std::vector<Value>> want = sets[0];
    want.resize(groups + fresh);
    for (size_t k = 0; k < groups; ++k) {
      for (const Value& v : sets[1][k]) insert(&want[dst[k]], v);
    }
    Column want_col;
    for (uint32_t g = 0; g < groups + fresh; ++g) {
      ASSERT_EQ(parts[0]->FinalizeGroup(g).AsInt(),
                static_cast<int64_t>(want[g].size()))
          << "trial " << trial << " group " << g;
      want_col.Append(Value::Int(static_cast<int64_t>(want[g].size())));
    }
    ExpectSameColumn(want_col, parts[0]->FinalizeColumn(),
                     "trial " + std::to_string(trial));
    ASSERT_TRUE(parts[0]->status().ok());
    if (::testing::Test::HasFatalFailure()) break;
  }
  SetGroupHashMaskForTest(~0ull);
}

/// Merges `partials` (key columns of one row per group) through a
/// GroupMergeTable and checks gids and key columns against the Value
/// definition: GroupValuesEqual on the original keys, first occurrence
/// wins, output via Column::Append.
void CheckMergeAgainstValues(const std::vector<std::vector<Column>>& partials,
                             const std::string& what) {
  std::vector<std::vector<Value>> seen;  // first-occurrence key tuples
  std::vector<Column> want(partials[0].size());
  GroupMergeTable merge;
  std::vector<uint32_t> gids;
  for (size_t m = 0; m < partials.size(); ++m) {
    const std::vector<Column>& keys = partials[m];
    std::vector<const Column*> ptrs;
    for (const Column& c : keys) ptrs.push_back(&c);
    std::vector<uint64_t> hashes;
    HashGroupKeys(ptrs, keys[0].size(), &hashes);
    std::vector<uint32_t> expect;
    for (size_t k = 0; k < keys[0].size(); ++k) {
      std::vector<Value> key;
      for (const Column& c : keys) key.push_back(c.Get(k));
      size_t g = 0;
      while (g < seen.size()) {
        bool eq = true;
        for (size_t i = 0; i < key.size(); ++i) {
          eq = eq && GroupValuesEqual(seen[g][i], key[i]);
        }
        if (eq) break;
        ++g;
      }
      if (g == seen.size()) {
        seen.push_back(key);
        for (size_t i = 0; i < key.size(); ++i) want[i].Append(key[i]);
      }
      expect.push_back(static_cast<uint32_t>(g));
    }
    if (m == 0) {
      merge.Adopt(keys, hashes, 64);
      for (uint32_t k = 0; k < expect.size(); ++k) {
        ASSERT_EQ(expect[k], k) << what << ": first partial must be distinct";
      }
    } else {
      merge.Merge(keys, hashes, &gids);
      ASSERT_TRUE(merge.guard_status().ok());
      ASSERT_EQ(gids, expect) << what << " partial " << m;
    }
    ASSERT_EQ(merge.num_groups(), seen.size()) << what;
  }
  const std::vector<Column> got = merge.TakeKeys();
  for (size_t i = 0; i < want.size(); ++i) {
    ExpectSameColumn(want[i], got[i], what + " key " + std::to_string(i));
  }
}

Column Col(std::initializer_list<Value> values) {
  Column c;
  for (const Value& v : values) c.Append(v);
  return c;
}

TEST_F(FlatAggTest, MergeTableKeepsOriginalKeysAcrossLossyTypeChanges) {
  // Appending Double keys to Int64 keys promotes the column, and above 2^53
  // two distinct integers promote to the same double; a string key appended
  // after numeric keys is stored as NULL. Grouping must still follow the
  // original key values — as the Value-keyed definition does.
  const int64_t big = int64_t{1} << 53;
  const std::vector<std::vector<Column>> big_ints = {
      {Col({Value::Int(big), Value::Int(big + 1), Value::Int(3)})},
      {Col({Value::Double(3.0), Value::Double(0.5), Value::Double(9.0e15)})},
      {Col({Value::Int(big + 1), Value::Int(big), Value::Int(7)})},
      {Col({Value::Double(static_cast<double>(big)), Value::Null()})},
  };
  const std::vector<std::vector<Column>> strings_after_ints = {
      {Col({Value::Int(1), Value::Int(2)})},
      {Col({Value::String("a"), Value::String("b")})},
      {Col({Value::Null(), Value::String("a")})},
      {Col({Value::Int(2), Value::Int(5)})},
      {Col({Value::Double(1.0), Value::Double(2.5), Value::Null()})},
      {Col({Value::String("c"), Value::String("b")})},
  };
  const std::vector<std::vector<Column>> null_then_types = {
      {Col({Value::Null()}), Col({Value::String("x")})},
      {Col({Value::Int(4), Value::Null()}),
       Col({Value::String("x"), Value::String("x")})},
      {Col({Value::Double(4.0), Value::Double(-0.0), Value::Null()}),
       Col({Value::String("x"), Value::Null(), Value::String("y")})},
      {Col({Value::Bool(true), Value::Int(0)}),
       Col({Value::Null(), Value::Null()})},
  };
  for (uint64_t mask : {~uint64_t{0}, uint64_t{0}}) {
    SetGroupHashMaskForTest(mask);
    const std::string m = " mask=" + std::to_string(mask);
    CheckMergeAgainstValues(big_ints, "big ints" + m);
    CheckMergeAgainstValues(strings_after_ints, "strings after ints" + m);
    CheckMergeAgainstValues(null_then_types, "null then types" + m);
  }
}

// ---------------------------------------------------------------------------
// Dense group-id arm vs. the hash arm
// ---------------------------------------------------------------------------
//
// Small-domain NULL-free integer keys (Int64, Bool, integral doubles) take
// the direct-indexed arm of group-id assignment; the same keys pushed
// through a bijective wide-range remap (k * 1000003 + 7) are past its slot
// bound and take the hash arm. Both must yield the same groups in the same
// order with the same aggregate bits. The queries output min(key) rather
// than the key itself, so the two spellings share a result shape.

/// k (-3..12), kb (Bool), kd (integral doubles incl. -0.0), c (one value),
/// kn (Int64 with NULLs and zeros), kx (doubles with NaN and halves),
/// v (full-mantissa doubles), w (ints with NULLs).
TablePtr BuildDenseTable(size_t rows) {
  Rng rng(kSeed + 4);
  auto t = std::make_shared<Table>();
  t->AddColumn("k", TypeId::kInt64);
  t->AddColumn("kb", TypeId::kBool);
  t->AddColumn("kd", TypeId::kDouble);
  t->AddColumn("c", TypeId::kInt64);
  t->AddColumn("kn", TypeId::kInt64);
  t->AddColumn("kx", TypeId::kDouble);
  t->AddColumn("v", TypeId::kDouble);
  t->AddColumn("w", TypeId::kInt64);
  const double nan = std::numeric_limits<double>::quiet_NaN();
  for (size_t r = 0; r < rows; ++r) {
    const int64_t kd = rng.NextInRange(-2, 3);
    Value kx;
    switch (rng.NextBounded(4)) {
      case 0: kx = Value::Double(nan); break;
      case 1: kx = Value::Double(0.5 * static_cast<double>(rng.NextInRange(-2, 2))); break;
      default: kx = Value::Double(static_cast<double>(rng.NextInRange(-1, 1)));
    }
    t->AppendRow({Value::Int(rng.NextInRange(-3, 12)),
                  Value::Bool(rng.NextBernoulli(0.3)),
                  Value::Double(kd == 0 && rng.NextBernoulli(0.5)
                                    ? -0.0
                                    : static_cast<double>(kd)),
                  Value::Int(42),
                  rng.NextBernoulli(0.2) ? Value::Null()
                                         : Value::Int(rng.NextInRange(-1, 2)),
                  kx,
                  rng.NextBernoulli(0.1)
                      ? Value::Null()
                      : Value::Double(rng.NextDouble() * 1e9 - 5e8),
                  rng.NextBernoulli(0.2)
                      ? Value::Null()
                      : Value::Int(rng.NextInRange(-1000, 1000))});
  }
  return t;
}

/// One key shape: two spellings of the same key tuple (a bijection of each
/// other), the first dense-eligible where the data allows, the second wide.
struct KeyTwin {
  std::string from;  // FROM clause
  std::string keys, wide_keys;
  std::string mins;  // min() of each underlying key column
};

std::vector<KeyTwin> KeyTwins() {
  const std::string t = "t";
  const std::string sid =
      "(select *, floor(rand() * 5) as sid from t) as d";
  return {
      {t, "k", "k * 1000003 + 7", "min(k) as mk"},
      // Far from zero: the slot offset is an unsigned difference.
      {t, "k - 9000000000000000000", "k * 1000003 + 7", "min(k) as mk"},
      {t, "kb", "case when kb then 1000010 else 7 end", "min(kb) as mb"},
      {t, "kd", "kd * 1000003 + 7", "min(kd) as md"},
      {t, "k, kd", "k * 1000003 + 7, kd * 1000003 + 7",
       "min(k) as mk, min(kd) as md"},
      {t, "c, k", "c, k * 1000003 + 7", "min(c) as mc, min(k) as mk"},
      {t, "kb, k", "kb, k * 1000003 + 7", "min(kb) as mb, min(k) as mk"},
      // The AQP rewriter's subsample id, floor(rand() * b).
      {sid, "k, sid", "k * 1000003 + 7, sid * 1000003 + 7",
       "min(k) as mk, min(sid) as ms"},
      {sid, "sid", "sid * 1000003 + 7", "min(sid) as ms"},
      // Hash arm on both sides: a null mask, NaN and non-integral doubles.
      {t, "kn", "kn * 1000003 + 7", "min(kn) as mn, count(kn) as cn"},
      {t, "kx", "kx * 1000003 + 7", "min(kx) as mx, count(kx) as cx"},
      {t, "k, kx", "k * 1000003 + 7, kx * 1000003 + 7",
       "min(k) as mk, min(kx) as mx"},
  };
}

TEST_F(FlatAggTest, DenseArmMatchesHashArmOnWideRangeTwins) {
  const size_t kRows = 3001;
  const TablePtr table = BuildDenseTable(kRows);
  SetMorselRowsForTest(0);
  const size_t default_morsel = MorselRows();
  for (const KeyTwin& twin : KeyTwins()) {
    for (const char* where : {"", " where w > 0"}) {
      auto sql = [&](const std::string& keys) {
        return "select " + twin.mins +
               ", count(*) as c, sum(v) as s, avg(w) as a, max(v) as mv "
               "from " + twin.from + where + " group by " + keys;
      };
      for (size_t morsel : {size_t{7}, default_morsel}) {
        SetMorselRowsForTest(morsel);
        for (int threads : {1, 2, 8}) {
          auto run = [&](const std::string& q) {
            Database db(kSeed);
            db.set_num_threads(threads);
            EXPECT_TRUE(db.RegisterTable("t", table).ok());
            auto rs = db.Execute(q);
            EXPECT_TRUE(rs.ok()) << q << " -> " << rs.status().ToString();
            return std::move(rs).ValueOrDie();
          };
          const ResultSet dense = run(sql(twin.keys));
          const ResultSet wide = run(sql(twin.wide_keys));
          ASSERT_GT(dense.NumRows(), 0u) << sql(twin.keys);
          ExpectBitIdentical(wide, dense,
                             sql(twin.keys) + " morsel=" +
                                 std::to_string(morsel) + " @" +
                                 std::to_string(threads));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
    }
  }
}

TEST_F(FlatAggTest, DenseArmGroupIdsEqualHashArmGroupIds) {
  // The assignment itself: gid_of_row, rep_row and group_hash of a dense
  // key set equal those of the same rows' keys through the hash arm, under
  // forced collisions too. The wide twin keeps gids and representatives
  // (a bijection of the keys) but hashes differently, so its hashes are
  // checked against HashGroupKeys at the representatives instead.
  Rng rng(kSeed + 5);
  for (int trial = 0; trial < 200; ++trial) {
    const size_t n = 1 + rng.NextBounded(300);
    std::vector<int64_t> a(n), wa(n);
    std::vector<double> b(n), wb(n);
    const int64_t lo = rng.NextInRange(-50, 50);
    const int64_t span = 1 + rng.NextInRange(0, 20);
    for (size_t r = 0; r < n; ++r) {
      a[r] = lo + rng.NextInRange(0, span - 1);
      const int64_t d = rng.NextInRange(-2, 2);
      b[r] = d == 0 && rng.NextBernoulli(0.5) ? -0.0 : static_cast<double>(d);
      wa[r] = a[r] * 1000003 + 7;
      wb[r] = b[r] * 1000003 + 7;
    }
    const Column ca = Column::FromData(TypeId::kInt64, a, {}, {}, {});
    const Column cb = Column::FromData(TypeId::kDouble, {}, b, {}, {});
    const Column cwa = Column::FromData(TypeId::kInt64, wa, {}, {}, {});
    const Column cwb = Column::FromData(TypeId::kDouble, {}, wb, {}, {});
    // A selection over the rows for the bitmap form.
    std::vector<uint32_t> sel;
    for (uint32_t r = 0; r < n; ++r) {
      if (rng.NextBernoulli(0.6)) sel.push_back(r);
    }
    for (uint64_t mask : {~uint64_t{0}, uint64_t{0x3}}) {
      SetGroupHashMaskForTest(mask);
      const GroupAssignment dense = AssignGroupIds({&ca, &cb}, n);
      const GroupAssignment wide = AssignGroupIds({&cwa, &cwb}, n);
      ASSERT_EQ(dense.gid_of_row, wide.gid_of_row) << "trial " << trial;
      ASSERT_EQ(dense.rep_row, wide.rep_row) << "trial " << trial;
      GroupAssignment dsel, wsel;
      AssignGroupIdsSelected({&ca, &cb}, n, sel.data(), sel.size(), &dsel);
      AssignGroupIdsSelected({&cwa, &cwb}, n, sel.data(), sel.size(), &wsel);
      ASSERT_EQ(dsel.gid_of_row, wsel.gid_of_row) << "trial " << trial;
      ASSERT_EQ(dsel.rep_row, wsel.rep_row) << "trial " << trial;
      // group_hash: the hash arm's per-row formula at each representative.
      std::vector<uint64_t> row_hashes;
      HashGroupKeys({&ca, &cb}, n, &row_hashes);
      for (const GroupAssignment* ga : {&dense, static_cast<const GroupAssignment*>(&dsel)}) {
        ASSERT_EQ(ga->group_hash.size(), ga->rep_row.size());
        for (size_t g = 0; g < ga->rep_row.size(); ++g) {
          ASSERT_EQ(ga->group_hash[g], row_hashes[ga->rep_row[g]])
              << "trial " << trial << " group " << g;
        }
      }
    }
    SetGroupHashMaskForTest(~0ull);
  }
}

// ---------------------------------------------------------------------------
// COUNT(DISTINCT) on the flat sink vs. the object sink
// ---------------------------------------------------------------------------

const char* const kDistinctQueries[] = {
    "select count(distinct w) as c from t",
    "select gi, count(distinct w) as c from t group by gi",
    // NaN, -0.0 == 0.0, NULLs.
    "select gi, count(distinct gd) as c from t group by gi",
    "select gs, count(distinct gs) as c1, count(distinct gi) as c2 "
    "from t group by gs",
    // The AQP NDV probe over a small domain (dense pair set).
    "select count(distinct gi) as c from t",
    // 5 then 5.0: Int64 keys in the first 7 rows, integral doubles after.
    "select count(distinct case when id < 7 then gi "
    "else gi * 1.0 end) as c from t",
    "select gi, count(distinct case when id < 7 then gi "
    "else gi * 1.0 end) as c from t group by gi",
    // Int64 past 2^53 in the first morsel, Double in the next ones: the
    // promoted pair keys collapse, the originals must not.
    "select count(distinct case when id < 7 then 9007199254740993 + id % 3 "
    "else 9007199254740992.0 + id % 3 end) as c from t",
    "select gi, count(distinct gs) as cd, sum(v) as s, avg(w) as a, "
    "count(*) as n from t group by gi",
    "select gi, count(*) as c from t group by gi "
    "having count(distinct gd) > 3",
    "select gi, count(distinct w) as c from t where w > 0 group by gi",
    "select count(distinct v) as c, count(distinct z) as cz from t",
    "select count(distinct w) as c from t where v > 1e18",
    "select gi, count(distinct w) as c from t where v > 1e18 group by gi",
};

TablePtr BuildDistinctTable(size_t rows) {
  // BuildAggTable plus a row id for morsel-dependent argument types.
  TablePtr base = BuildAggTable(rows);
  auto t = std::make_shared<Table>();
  std::vector<int64_t> ids(rows);
  for (size_t r = 0; r < rows; ++r) ids[r] = static_cast<int64_t>(r);
  t->AddColumn("id", Column::FromData(TypeId::kInt64, std::move(ids), {}, {},
                                      {}));
  for (size_t c = 0; c < base->num_columns(); ++c) {
    t->AddColumn(base->column_name(c), base->column(c));
  }
  return t;
}

TEST_F(FlatAggTest, FlatCountDistinctMatchesObjectSink) {
  const size_t kRows = 2003;
  const TablePtr table = BuildDistinctTable(kRows);
  auto run = [&](const std::string& sql, int threads) {
    Database db(kSeed);
    db.set_num_threads(threads);
    EXPECT_TRUE(db.RegisterTable("t", table).ok());
    auto rs = db.Execute(sql);
    EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
    return std::move(rs).ValueOrDie();
  };
  for (size_t morsel : {size_t{7}, size_t{257}}) {
    SetMorselRowsForTest(morsel);
    for (const char* sql : kDistinctQueries) {
      SetFlatAggSinkForTest(false);
      const ResultSet ref = run(sql, 1);
      SetFlatAggSinkForTest(true);
      for (uint64_t mask : {~uint64_t{0}, uint64_t{0x7}, uint64_t{0}}) {
        SetGroupHashMaskForTest(mask);
        for (int threads : {1, 2, 8}) {
          ExpectBitIdentical(ref, run(sql, threads),
                             std::string(sql) + " morsel=" +
                                 std::to_string(morsel) + " mask=" +
                                 std::to_string(mask) + " @" +
                                 std::to_string(threads));
          if (::testing::Test::HasFatalFailure()) return;
        }
      }
      SetGroupHashMaskForTest(~0ull);
    }
  }
}

TEST_F(FlatAggTest, FlatCountDistinctKnownAnswers) {
  // Definitions the differential test cannot see (both sinks could agree
  // on a wrong answer): 5 == 5.0, NaN == NaN, -0.0 == 0.0, NULLs ignored,
  // distinct Int64 keys above 2^53 stay distinct, empty input counts 0.
  const double nan = std::numeric_limits<double>::quiet_NaN();
  const int64_t big = int64_t{1} << 53;
  auto t = std::make_shared<Table>();
  t->AddColumn("id", TypeId::kInt64);
  t->AddColumn("g", TypeId::kInt64);
  t->AddColumn("d", TypeId::kDouble);
  t->AddColumn("i", TypeId::kInt64);
  const std::vector<Value> ds = {Value::Double(nan),  Value::Double(-0.0),
                                 Value::Double(0.0),  Value::Double(5.0),
                                 Value::Double(nan),  Value::Null(),
                                 Value::Double(2.5)};
  const std::vector<Value> is = {Value::Int(5),       Value::Int(big + 1),
                                 Value::Int(big),     Value::Null(),
                                 Value::Int(big + 1), Value::Int(5),
                                 Value::Int(-5)};
  for (size_t r = 0; r < ds.size(); ++r) {
    t->AppendRow({Value::Int(static_cast<int64_t>(r)),
                  Value::Int(static_cast<int64_t>(r % 2)), ds[r], is[r]});
  }
  for (size_t morsel : {size_t{1}, size_t{3}, size_t{0}}) {
    SetMorselRowsForTest(morsel);
    for (int threads : {1, 8}) {
      Database db(kSeed);
      db.set_num_threads(threads);
      ASSERT_TRUE(db.RegisterTable("k", t).ok());
      const std::string at =
          " morsel=" + std::to_string(morsel) + " @" + std::to_string(threads);
      // d: {NaN, 0, 5, 2.5}; i: {5, 2^53 + 1, 2^53, -5}.
      auto rs = db.Execute(
          "select count(distinct d) as cd, count(distinct i) as ci, "
          "count(distinct case when id % 2 = 1 then d else i end) as cm "
          "from k");
      ASSERT_TRUE(rs.ok()) << rs.status().ToString();
      EXPECT_EQ(rs.value().Get(0, 0).AsInt(), 4) << at;
      EXPECT_EQ(rs.value().Get(0, 1).AsInt(), 4) << at;
      if (morsel == 1) {
        // One-row morsels keep each row's own type: odd rows give d
        // (-0.0, 5.0, NULL), even rows i (5, 2^53, 2^53 + 1, -5), and 5.0
        // is 5: {0, 5, 2^53, 2^53 + 1, -5}.
        EXPECT_EQ(rs.value().Get(0, 2).AsInt(), 5) << at;
      }
      // g = 0: d {NaN, 0.0, NaN, 2.5} -> 3; g = 1: d {-0.0, 5.0, NULL} -> 2.
      auto grouped = db.Execute(
          "select g, count(distinct d) as c from k group by g");
      ASSERT_TRUE(grouped.ok()) << grouped.status().ToString();
      ASSERT_EQ(grouped.value().NumRows(), 2u) << at;
      EXPECT_EQ(grouped.value().Get(0, 1).AsInt(), 3) << at;
      EXPECT_EQ(grouped.value().Get(1, 1).AsInt(), 2) << at;
      auto empty = db.Execute("select count(distinct d) as c from k where id < 0");
      ASSERT_TRUE(empty.ok()) << empty.status().ToString();
      ASSERT_EQ(empty.value().NumRows(), 1u) << at;
      EXPECT_EQ(empty.value().Get(0, 0).AsInt(), 0) << at;
    }
  }
}

}  // namespace
}  // namespace vdb::engine
