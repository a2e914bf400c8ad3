// Morsel-driven parallel execution: determinism across thread counts.
//
// Every query here is executed against identical databases configured with
// 1, 2 and 8 threads, and the full result sets (values AND row order) must
// match BIT-IDENTICALLY — floating-point aggregates included. Mergeable
// aggregation always runs through per-morsel partials merged in fixed morsel
// order (the decomposition depends only on the row count, never the thread
// count), and sum/avg kernels carry Neumaier compensation, so 1-thread and
// N-thread runs execute the identical computation. The fixtures shrink the
// morsel size so small tables still span many morsels, and cover the
// boundary cases: row counts smaller than one morsel, exact multiples of
// the morsel size, off-by-one around it, and empty inputs.

#include <gtest/gtest.h>

#include <chrono>
#include <cmath>
#include <limits>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "common/random.h"
#include "common/thread_pool.h"
#include "core/verdict_context.h"
#include "engine/database.h"
#include "engine/expr_eval.h"
#include "engine/planner.h"
#include "engine/vector_eval.h"
#include "sql/parser.h"

namespace vdb::engine {
namespace {

constexpr uint64_t kSeed = 20260729;
constexpr size_t kTestMorselRows = 1000;

TablePtr BuildOrders(size_t n) {
  Rng rng(kSeed);
  auto t = std::make_shared<Table>();
  t->AddColumn("id", TypeId::kInt64);
  t->AddColumn("city", TypeId::kString);
  t->AddColumn("price", TypeId::kDouble);
  t->AddColumn("qty", TypeId::kInt64);
  t->AddColumn("k", TypeId::kInt64);
  const char* cities[] = {"ann arbor", "detroit", "chicago", "nyc", "sf"};
  for (size_t r = 0; r < n; ++r) {
    // Prices are multiples of 0.25: every partial sum is exactly
    // representable, so parallel merge order cannot change the result.
    double price = static_cast<double>(rng.NextInRange(0, 4000)) * 0.25;
    Value qty = (r % 13 == 0) ? Value::Null()
                              : Value::Int(rng.NextInRange(0, 99));
    t->AppendRow({Value::Int(static_cast<int64_t>(r)),
                  Value::String(cities[rng.NextBounded(5)]),
                  Value::Double(price), qty,
                  Value::Int(rng.NextInRange(0, 60))});
  }
  return t;
}

TablePtr BuildDim() {
  auto t = std::make_shared<Table>();
  t->AddColumn("k", TypeId::kInt64);
  t->AddColumn("label", TypeId::kString);
  for (int64_t k = 0; k < 50; ++k) {  // keys 50..59 have no match
    t->AppendRow({Value::Int(k), Value::String("label_" + std::to_string(k))});
  }
  return t;
}

std::unique_ptr<Database> MakeDb(size_t rows, int num_threads) {
  auto db = std::make_unique<Database>(kSeed);
  db->set_num_threads(num_threads);
  EXPECT_TRUE(db->RegisterTable("orders", BuildOrders(rows)).ok());
  EXPECT_TRUE(db->RegisterTable("dim", BuildDim()).ok());
  return db;
}

void ExpectSameResults(const ResultSet& ref, const ResultSet& got,
                       const std::string& what, double eps = 0.0) {
  ASSERT_EQ(ref.NumCols(), got.NumCols()) << what;
  ASSERT_EQ(ref.NumRows(), got.NumRows()) << what;
  for (size_t c = 0; c < ref.NumCols(); ++c) {
    EXPECT_EQ(ref.names[c], got.names[c]) << what;
  }
  for (size_t r = 0; r < ref.NumRows(); ++r) {
    for (size_t c = 0; c < ref.NumCols(); ++c) {
      const Value a = ref.Get(r, c);
      const Value b = got.Get(r, c);
      ASSERT_EQ(a.is_null(), b.is_null())
          << what << " cell (" << r << "," << c << ")";
      if (a.is_null()) continue;
      if (eps > 0.0 && a.type() == TypeId::kDouble) {
        EXPECT_NEAR(a.AsDouble(), b.AsDouble(),
                    eps * std::max(1.0, std::abs(a.AsDouble())))
            << what << " cell (" << r << "," << c << ")";
      } else {
        ASSERT_EQ(a.type(), b.type())
            << what << " cell (" << r << "," << c << ")";
        EXPECT_TRUE(a.Equals(b))
            << what << " cell (" << r << "," << c << "): " << a.ToString()
            << " vs " << b.ToString();
      }
    }
  }
}

/// Runs `sql` at 1, 2 and 8 threads over identical databases and asserts
/// identical results (including row order).
void CheckQueryAcrossThreads(size_t rows, const std::string& sql,
                             double eps = 0.0) {
  auto ref_db = MakeDb(rows, 1);
  auto ref = ref_db->Execute(sql);
  ASSERT_TRUE(ref.ok()) << sql << " -> " << ref.status().ToString();
  for (int threads : {2, 8}) {
    auto db = MakeDb(rows, threads);
    auto got = db->Execute(sql);
    ASSERT_TRUE(got.ok()) << sql << " -> " << got.status().ToString();
    ExpectSameResults(ref.value(), got.value(),
                      sql + " @" + std::to_string(threads) + " threads", eps);
  }
}

class ParallelTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMorselRowsForTest(kTestMorselRows); }
  void TearDown() override { SetMorselRowsForTest(0); }
};

TEST_F(ParallelTest, FilterDeterminism) {
  CheckQueryAcrossThreads(
      10007, "select id, price from orders where price > 500 and qty < 50");
}

TEST_F(ParallelTest, FilterSelectsNothing) {
  CheckQueryAcrossThreads(10007,
                          "select id from orders where price < -1");
}

TEST_F(ParallelTest, FilterSelectsEverything) {
  CheckQueryAcrossThreads(10007,
                          "select count(*) as c from orders where price >= 0");
}

TEST_F(ParallelTest, GroupedAggregates) {
  // No ORDER BY on purpose: the group discovery order (first occurrence in
  // row order) must itself be deterministic across thread counts.
  CheckQueryAcrossThreads(
      10007,
      "select city, count(*) as c, sum(qty) as sq, sum(price) as sp, "
      "avg(price) as ap, min(price) as mn, max(id) as mx, "
      "count(distinct qty) as dq, median(price) as md "
      "from orders group by city");
}

TEST_F(ParallelTest, GlobalAggregateNoGroupBy) {
  CheckQueryAcrossThreads(
      10007,
      "select count(*) as c, sum(price) as sp, min(qty) as mn, "
      "ndv(qty) as nd from orders where qty is not null");
}

TEST_F(ParallelTest, GroupByHighCardinalityWithHaving) {
  CheckQueryAcrossThreads(
      10007,
      "select k, qty, count(*) as c, sum(price) as sp from orders "
      "group by k, qty having count(*) > 2");
}

TEST_F(ParallelTest, VarianceAcrossThreads) {
  // Bit-identical, no tolerance: every thread count runs the same morsel
  // decomposition with Welford partials Chan-merged in morsel order.
  CheckQueryAcrossThreads(
      10007,
      "select city, var(price) as vp, stddev(qty) as sq from orders "
      "group by city");
}

TEST_F(ParallelTest, FullMantissaSumsBitIdenticalAcrossThreads) {
  // Doubles with full 53-bit mantissas, where naive partial-sum merges WOULD
  // differ from a serial row-order accumulation in the last ulps. The fixed
  // morsel decomposition plus Neumaier-compensated kernels make serial and
  // N-thread sums/averages/variances bit-identical — no epsilon here.
  auto build = [] {
    Rng rng(kSeed + 1);
    auto t = std::make_shared<Table>();
    t->AddColumn("g", TypeId::kInt64);
    t->AddColumn("x", TypeId::kDouble);
    for (size_t r = 0; r < 10007; ++r) {
      t->AppendRow({Value::Int(static_cast<int64_t>(r % 7)),
                    Value::Double((rng.NextDouble() - 0.5) * 1e6)});
    }
    return t;
  };
  ResultSet ref;
  const char* sql =
      "select g, sum(x) as sx, avg(x) as ax, var(x) as vx, stddev(x) as dx "
      "from t group by g";
  for (int threads : {1, 2, 8}) {
    Database db(kSeed);
    db.set_num_threads(threads);
    ASSERT_TRUE(db.RegisterTable("t", build()).ok());
    auto rs = db.Execute(sql);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    if (threads == 1) {
      ref = rs.value();
    } else {
      ExpectSameResults(ref, rs.value(),
                        std::string("full-mantissa sums @") +
                            std::to_string(threads) + " threads");
    }
  }
}

TEST_F(ParallelTest, HashJoinProbe) {
  CheckQueryAcrossThreads(
      10007,
      "select o.id, o.price, d.label from orders o join dim d on o.k = d.k "
      "where o.price > 250");
}

TEST_F(ParallelTest, LeftJoinNullExtension) {
  CheckQueryAcrossThreads(
      10007,
      "select o.id, d.label from orders o left join dim d on o.k = d.k");
}

TEST_F(ParallelTest, LeftJoinWhereOnNullExtendedColumn) {
  // The WHERE is pushed down onto the join's pair-list view (filtering
  // candidate pairs before the combined gather); IS NULL over the
  // null-extended right column must see exactly the post-materialization
  // semantics, at every thread count.
  CheckQueryAcrossThreads(
      10007,
      "select o.id, o.k from orders o left join dim d on o.k = d.k "
      "where d.label is null");
}

TEST_F(ParallelTest, JoinWhereMixingBothSides) {
  CheckQueryAcrossThreads(
      10007,
      "select o.id, d.label from orders o join dim d on o.k = d.k "
      "where o.price > 100 and d.k % 3 = 1");
}

TEST_F(ParallelTest, JoinWhereWithRandPushedDown) {
  // rand() in the WHERE rides the pair-view pushdown like any other
  // predicate: draws address the global pair ordinal (= materialized row),
  // so seeded runs are reproducible and thread-count independent.
  CheckQueryAcrossThreads(
      2003,
      "select o.id from orders o join dim d on o.k = d.k where rand() < 0.5");
}

TEST_F(ParallelTest, JoinThenGroupedAggregate) {
  CheckQueryAcrossThreads(
      10007,
      "select d.label, count(*) as c, sum(o.price) as sp "
      "from orders o join dim d on o.k = d.k group by d.label");
}

TEST_F(ParallelTest, DistinctAndOrderBy) {
  CheckQueryAcrossThreads(
      10007, "select distinct city, qty from orders order by city, qty");
}

TEST_F(ParallelTest, RandPredicateRowAddressedAcrossThreads) {
  // rand() runs on the morsel-parallel path; row-addressed draws make the
  // selected rows identical for every thread setting.
  CheckQueryAcrossThreads(10007,
                          "select count(*) as c from orders where rand() < 0.5");
}

// ---- morsel-boundary edge cases -------------------------------------------

TEST_F(ParallelTest, RowCountSmallerThanOneMorsel) {
  CheckQueryAcrossThreads(
      17, "select city, count(*) as c, sum(price) as sp from orders "
          "group by city");
}

TEST_F(ParallelTest, RowCountExactMultipleOfMorsel) {
  CheckQueryAcrossThreads(
      3 * kTestMorselRows,
      "select count(*) as c, sum(price) as sp from orders where qty < 30");
}

TEST_F(ParallelTest, RowCountOffByOneAroundMorsel) {
  for (size_t n : {kTestMorselRows - 1, kTestMorselRows, kTestMorselRows + 1,
                   5 * kTestMorselRows - 1, 5 * kTestMorselRows + 1}) {
    CheckQueryAcrossThreads(
        n, "select city, count(*) as c, sum(price) as sp from orders "
           "group by city");
  }
}

TEST_F(ParallelTest, TinyMorsels) {
  // Morsels far smaller than a natural batch: many single-digit work units.
  SetMorselRowsForTest(7);
  CheckQueryAcrossThreads(
      500, "select qty, count(*) as c from orders where price > 100 "
           "group by qty");
}

TEST_F(ParallelTest, EmptyInput) {
  auto empty = std::make_shared<Table>();
  empty->AddColumn("x", TypeId::kInt64);
  for (int threads : {1, 2, 8}) {
    Database db(kSeed);
    db.set_num_threads(threads);
    ASSERT_TRUE(db.RegisterTable("t", empty).ok());
    auto rs = db.Execute("select count(*) as c, sum(x) as s from t where x > 0");
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().NumRows(), 1u);
    EXPECT_EQ(rs.value().Get(0, 0).AsInt(), 0);
    EXPECT_TRUE(rs.value().Get(0, 1).is_null());
  }
}

TEST_F(ParallelTest, NanGroupKeysAcrossThreads) {
  // Both NaN signs must land in ONE group on every path: the serial
  // vectorized group ids, the parallel morsel-local group ids, and the
  // cross-morsel ValueGroupKey merge (which canonicalizes NaN).
  const double nan_pos = std::numeric_limits<double>::quiet_NaN();
  auto build = [&]() {
    auto t = std::make_shared<Table>();
    t->AddColumn("g", TypeId::kDouble);
    t->AddColumn("v", TypeId::kInt64);
    for (size_t r = 0; r < 3000; ++r) {
      double g = (r % 3 == 0) ? nan_pos : (r % 3 == 1) ? -nan_pos : 1.5;
      t->AppendRow({Value::Double(g), Value::Int(1)});
    }
    return t;
  };
  ResultSet ref;
  for (int threads : {1, 2, 8}) {
    Database db(kSeed);
    db.set_num_threads(threads);
    ASSERT_TRUE(db.RegisterTable("t", build()).ok());
    auto rs = db.Execute("select count(*) as c, sum(v) as sv from t group by g");
    ASSERT_TRUE(rs.ok());
    ASSERT_EQ(rs.value().NumRows(), 2u) << threads << " threads";
    if (threads == 1) {
      ref = rs.value();
    } else {
      ExpectSameResults(ref, rs.value(),
                        "nan groups @" + std::to_string(threads));
    }
  }
}

TEST_F(ParallelTest, ConcurrentCallersShareThePool) {
  // Two application threads each running parallel queries against their own
  // Database: the pool publishes one job at a time, so the callers must
  // queue cleanly (no clobbered jobs) and both get the serial-path answer.
  auto ref_db = MakeDb(10007, 1);
  auto ref = ref_db->Execute("select city, count(*) as c, sum(price) as sp "
                             "from orders group by city");
  ASSERT_TRUE(ref.ok());
  auto worker = [&](int* failures) {
    auto db = MakeDb(10007, 4);
    for (int i = 0; i < 20; ++i) {
      auto got = db->Execute("select city, count(*) as c, sum(price) as sp "
                             "from orders group by city");
      if (!got.ok() || got.value().NumRows() != ref.value().NumRows()) {
        ++*failures;
        continue;
      }
      for (size_t r = 0; r < ref.value().NumRows(); ++r) {
        for (size_t c = 0; c < ref.value().NumCols(); ++c) {
          if (!ref.value().Get(r, c).Equals(got.value().Get(r, c))) {
            ++*failures;
          }
        }
      }
    }
  };
  int fail_a = 0, fail_b = 0;
  std::thread a(worker, &fail_a);
  std::thread b(worker, &fail_b);
  a.join();
  b.join();
  EXPECT_EQ(fail_a, 0);
  EXPECT_EQ(fail_b, 0);
}

TEST_F(ParallelTest, SharedDatabaseConcurrentSelects) {
  // Regression for the shared-Database races: NewQuerySeed() used to mutate
  // the Rng unlocked and AddRowsScanned() was a plain += — two threads
  // running SELECTs against ONE Database could corrupt generator state and
  // lose scan-count updates. NewQuerySeed now serializes on seed_mu_ and
  // rows_scanned_ is atomic, so this must be exact (and TSan-clean; the CI
  // thread-sanitizer job runs this suite).
  auto db = MakeDb(10007, 4);
  const char* kSql =
      "select city, count(*) as c, sum(price) as sp "
      "from orders group by city order by city";
  auto ref = db->Execute(kSql);
  ASSERT_TRUE(ref.ok());
  const uint64_t scanned_per_query = db->rows_scanned();
  ASSERT_GT(scanned_per_query, 0u);

  constexpr int kItersPerThread = 20;
  auto worker = [&](int* failures) {
    for (int i = 0; i < kItersPerThread; ++i) {
      auto got = db->Execute(kSql);
      if (!got.ok() || got.value().NumRows() != ref.value().NumRows()) {
        ++*failures;
        continue;
      }
      for (size_t r = 0; r < ref.value().NumRows(); ++r) {
        for (size_t c = 0; c < ref.value().NumCols(); ++c) {
          if (!ref.value().Get(r, c).Equals(got.value().Get(r, c))) {
            ++*failures;
          }
        }
      }
    }
  };
  // A third thread runs the same statement under a pre-cancelled guard and
  // an immediate deadline: its executions must unwind with kCancelled /
  // kDeadlineExceeded without perturbing the other threads' results or the
  // shared rows_scanned tally. Each doomed run still resolves the base table
  // (the scan is counted at plan time, before the first cooperative poll),
  // so its contribution stays exact.
  constexpr int kDoomedIters = 10;
  int doomed_bad = 0;
  auto doomed = [&]() {
    ExecGuard guard;
    for (int i = 0; i < kDoomedIters; ++i) {
      guard.ResetForStatement();
      guard.set_deadline_after_ms(0);
      if (i % 2 == 0) {
        guard.RequestCancel();
      } else {
        // Sleep past a 1 ms deadline so the very first poll trips it.
        guard.set_deadline_after_ms(1);
        std::this_thread::sleep_for(std::chrono::milliseconds(3));
      }
      auto got = db->Execute(kSql, &guard);
      const StatusCode want =
          i % 2 == 0 ? StatusCode::kCancelled : StatusCode::kDeadlineExceeded;
      if (got.ok() || got.status().code() != want) ++doomed_bad;
    }
  };
  int fail_a = 0, fail_b = 0;
  std::thread a(worker, &fail_a);
  std::thread b(worker, &fail_b);
  std::thread c(doomed);
  a.join();
  b.join();
  c.join();
  EXPECT_EQ(fail_a, 0);
  EXPECT_EQ(fail_b, 0);
  EXPECT_EQ(doomed_bad, 0);
  // Every execution scans the base table exactly once — including the doomed
  // ones, which count the scan before unwinding; a lost update here means
  // AddRowsScanned raced.
  EXPECT_EQ(db->rows_scanned(),
            scanned_per_query * (1 + 2 * kItersPerThread + kDoomedIters));
}

// ---- row-addressed rand: plan-shape and substrate invariance ---------------

/// The AQP hot-path shape: GROUP BY (g, __vdb_sid) over a derived table that
/// assigns `1 + floor(rand() * b)` per row (core/rewriter.cc, Appendix G
/// Query 9's inner query).
constexpr const char* kSidAggregateSql =
    "select city, sid, count(*) as c, sum(price) as sp from "
    "(select *, 1 + floor(rand() * 64) as sid from orders) t "
    "group by city, sid order by city, sid";

class RowAddressedRandTest : public ::testing::Test {
 protected:
  void SetUp() override { SetMorselRowsForTest(kTestMorselRows); }
  void TearDown() override {
    SetMorselRowsForTest(0);
    SetJoinWherePushdownForTest(true);
  }
};

TEST_F(RowAddressedRandTest, SidGroupByBitIdenticalAcrossThreads) {
  CheckQueryAcrossThreads(10007, kSidAggregateSql);
}

TEST_F(RowAddressedRandTest, BernoulliWhereBitIdenticalAcrossThreads) {
  CheckQueryAcrossThreads(
      10007,
      "select count(*) as c, sum(price) as sp, avg(qty) as aq "
      "from orders where rand() < 0.3");
}

TEST_F(RowAddressedRandTest, SampledJoinAggregateAcrossThreads) {
  CheckQueryAcrossThreads(
      10007,
      "select d.label, count(*) as c, sum(o.price) as sp "
      "from orders o join dim d on o.k = d.k where rand() < 0.5 "
      "group by d.label order by d.label");
}

TEST_F(RowAddressedRandTest, RandPoissonAcrossThreads) {
  CheckQueryAcrossThreads(
      10007,
      "select qty, sum(price * rand_poisson()) as s from orders "
      "where qty is not null group by qty order by qty");
}

TEST_F(RowAddressedRandTest, RandInGroupByRunsPartialAggregation) {
  // rand() directly in the grouping expression: no serial pin remains, and
  // morsel-partial aggregation must still merge to the serial reference.
  CheckQueryAcrossThreads(
      10007,
      "select 1 + floor(rand() * 8) as bucket, count(*) as c from orders "
      "group by bucket order by bucket");
}

/// Runs `sql` on a fresh seeded database and returns the result.
ResultSet RunFresh(const std::string& sql, int threads) {
  auto db = MakeDb(10007, threads);
  auto rs = db->Execute(sql);
  EXPECT_TRUE(rs.ok()) << sql << " -> " << rs.status().ToString();
  return rs.ok() ? rs.value() : ResultSet{};
}

TEST_F(RowAddressedRandTest, PairViewPushdownToggleInvariant) {
  // The same rand()-bearing join WHERE, evaluated on candidate pairs
  // (pushdown) vs the materialized join (post-gather): the draws address
  // the pair ordinal = materialized row, so results are bit-identical.
  const std::string sql =
      "select o.id, d.label from orders o join dim d on o.k = d.k "
      "where rand() < 0.5 and o.price > 100";
  SetJoinWherePushdownForTest(true);
  ResultSet on = RunFresh(sql, 8);
  SetJoinWherePushdownForTest(false);
  ResultSet off = RunFresh(sql, 8);
  ExpectSameResults(on, off, "pushdown on vs off");
}

TEST_F(RowAddressedRandTest, RandInProjectionOverJoinPushdownInvariant) {
  // rand() in the SELECT list of a joined-and-filtered query: pushdown would
  // compact the gathered join to the WHERE survivors, changing the physical
  // rows the projection's draws address — so the planner must keep such
  // statements on the post-gather plan, making the toggle a no-op and the
  // results identical.
  const std::string sql =
      "select o.id, 1 + floor(rand() * 16) as sid from orders o "
      "join dim d on o.k = d.k where o.id % 2 = 0";
  SetJoinWherePushdownForTest(true);
  ResultSet on = RunFresh(sql, 8);
  SetJoinWherePushdownForTest(false);
  ResultSet off = RunFresh(sql, 8);
  ExpectSameResults(on, off, "projection rand, pushdown on vs off");
}

TEST_F(RowAddressedRandTest, SerialRandBaselineProducesIdenticalResults) {
  // Oracle: the serial row-at-a-time executor in its smallest form — the
  // sid expression row-interpreted (EvalExpr) per row, grouped by hand. The
  // vectorized, fused, morsel-parallel statement must reproduce it exactly:
  // draws are row-addressed in both. The statement is the first on a fresh
  // database, so its query seed is the database Rng's first draw, and its
  // one rand() call is site 1.
  ResultSet vectorized = RunFresh(kSidAggregateSql, 8);
  auto sid = sql::ParseExpression("1 + floor(rand() * 64)");
  ASSERT_TRUE(sid.ok());
  sql::Expr& rand_call = *sid.value()->args[1]->args[0]->args[0];
  ASSERT_TRUE(sql::IsRandFunctionExpr(rand_call));
  rand_call.rand_site = 1;
  Rng seeds(kSeed);
  const uint64_t seed = seeds.Next();
  TablePtr orders = BuildOrders(10007);
  // (city, sid) -> (count, sum(price)); prices are multiples of 0.25, so the
  // sums are exact in any order.
  std::map<std::pair<std::string, int64_t>, std::pair<int64_t, double>> groups;
  for (size_t r = 0; r < orders->num_rows(); ++r) {
    auto v = EvalExpr(*sid.value(), RowCtx{orders.get(), r, seed, 0});
    ASSERT_TRUE(v.ok());
    auto& g = groups[{orders->Get(r, 1).AsString(), v.value().AsInt()}];
    ++g.first;
    g.second += orders->Get(r, 2).AsDouble();
  }
  ASSERT_EQ(vectorized.NumRows(), groups.size());
  size_t row = 0;
  for (const auto& [key, agg] : groups) {
    EXPECT_EQ(vectorized.Get(row, 0).AsString(), key.first) << row;
    EXPECT_EQ(vectorized.Get(row, 1).AsInt(), key.second) << row;
    EXPECT_EQ(vectorized.Get(row, 2).AsInt(), agg.first) << row;
    EXPECT_EQ(vectorized.Get(row, 3).AsDouble(), agg.second) << row;
    ++row;
  }
}

TEST_F(RowAddressedRandTest, ViewPipelineMatchesEagerReference) {
  // View pipeline (WHERE stays a view) vs an eager reference that
  // materializes the Bernoulli survivors first. Both databases execute the
  // same statement sequence from the same seed, so the rand() draws — and
  // therefore the surviving rows — must coincide.
  const std::string pred = "rand() < 0.4";
  auto eager_db = MakeDb(10007, 8);
  ASSERT_TRUE(eager_db
                  ->Execute("create table tf as select * from orders where " +
                            pred)
                  .ok());
  auto ref = eager_db->Execute(
      "select city, count(*) as c, sum(price) as sp from tf group by city");
  ASSERT_TRUE(ref.ok());
  auto view_db = MakeDb(10007, 8);
  auto got = view_db->Execute(
      "select city, count(*) as c, sum(price) as sp from orders where " +
      pred + " group by city");
  ASSERT_TRUE(got.ok());
  ExpectSameResults(ref.value(), got.value(), "eager vs view pipeline");
}

TEST_F(RowAddressedRandTest, EndToEndAqpBitIdenticalAcrossThreads) {
  // Full middleware path: sample preparation + the rewritten variational
  // query (GROUP BY g, __vdb_sid) at 1/2/8 threads. Sample membership, sid
  // assignment, and every aggregate must agree bit for bit.
  std::vector<ResultSet> results;
  for (int threads : {1, 2, 8}) {
    auto db = std::make_unique<Database>(kSeed);
    ASSERT_TRUE(db->RegisterTable("orders", BuildOrders(50000)).ok());
    core::VerdictOptions opts;
    opts.num_threads = threads;
    opts.min_rows_for_sampling = 10000;
    opts.io_budget = 0.2;
    core::VerdictContext ctx(db.get(), driver::EngineKind::kGeneric, opts);
    ASSERT_TRUE(
        ctx.sample_builder().CreateUniformSample("orders", 0.1).ok());
    core::VerdictContext::ExecInfo info;
    auto rs = ctx.Execute(
        "select city, count(*) as c, sum(price) as sp from orders "
        "group by city order by city",
        &info);
    ASSERT_TRUE(rs.ok()) << rs.status().ToString();
    EXPECT_TRUE(info.approximated) << info.skip_reason;
    results.push_back(rs.value());
  }
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectSameResults(results[0], results[i],
                      "AQP e2e @" + std::to_string(i == 1 ? 2 : 8));
  }
}

// ---- sample construction ---------------------------------------------------

TEST_F(ParallelTest, SampleBuildsDeterministicAcrossThreads) {
  struct SamplePair {
    ResultSet uniform;
    ResultSet hashed;
  };
  std::vector<SamplePair> results;
  for (int threads : {1, 2, 8}) {
    auto db = std::make_unique<Database>(kSeed);
    ASSERT_TRUE(db->RegisterTable("orders", BuildOrders(10007)).ok());
    core::VerdictOptions opts;
    opts.num_threads = threads;
    core::VerdictContext ctx(db.get(), driver::EngineKind::kGeneric, opts);
    auto uni = ctx.sample_builder().CreateUniformSample("orders", 0.3);
    ASSERT_TRUE(uni.ok()) << uni.status().ToString();
    auto hashed = ctx.sample_builder().CreateHashedSample("orders", "id", 0.3);
    ASSERT_TRUE(hashed.ok()) << hashed.status().ToString();
    auto u = db->Execute("select * from " + uni.value().sample_table);
    auto h = db->Execute("select * from " + hashed.value().sample_table);
    ASSERT_TRUE(u.ok());
    ASSERT_TRUE(h.ok());
    results.push_back({u.value(), h.value()});
  }
  ASSERT_EQ(results.size(), 3u);
  for (size_t i = 1; i < results.size(); ++i) {
    ExpectSameResults(results[0].uniform, results[i].uniform,
                      "uniform sample");
    ExpectSameResults(results[0].hashed, results[i].hashed, "hashed sample");
  }
}

}  // namespace
}  // namespace vdb::engine
